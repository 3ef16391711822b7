package lint

import "testing"

// TestRepoLintClean is the tier-1 gate: the full analyzer suite over
// the repository itself must be clean (the test runs in internal/lint;
// Load walks up to go.mod). This is what turns the lint invariants
// into build failures — an unsorted map iteration in the simulation
// packages, a dropped error or an undocumented evaluation-API symbol
// all land here.
func TestRepoLintClean(t *testing.T) {
	prog, err := Load(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunAnalyzers(prog, Analyzers()) {
		t.Errorf("%s", d)
	}
}
