package lint

import (
	"sync"
	"testing"
)

// repoProg caches the loaded repository program across the tests in
// this package (loading + type-checking the module once is enough).
var repoProg = sync.OnceValues(func() (*Program, error) {
	return Load(".")
})

// repoProgram loads the repository's own module (the test runs in
// internal/lint; Load walks up to go.mod).
func repoProgram(t *testing.T) *Program {
	t.Helper()
	prog, err := repoProg()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRepoLintClean is the tier-1 gate: the full analyzer suite over
// the repository itself must be clean. This is what turns the lint
// invariants into build failures — a new heap escape in a hot
// function, an unsorted map iteration in the simulation packages, a
// dropped error or an undocumented evaluation-API symbol all land
// here.
func TestRepoLintClean(t *testing.T) {
	prog := repoProgram(t)
	diags, err := RunAnalyzers(prog, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
