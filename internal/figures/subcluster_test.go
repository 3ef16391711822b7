package figures_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// runSubCluster runs the paper's §2 sub-cluster split, the script
// examples/scenarios/subcluster.lab, with its mrai and seed lines set
// to the given values, and returns what it prints.
func runSubCluster(t *testing.T, mrai, seed string) string {
	t.Helper()
	raw, err := os.ReadFile("../../examples/scenarios/subcluster.lab")
	if err != nil {
		t.Fatal(err)
	}
	src := string(raw)
	for _, r := range [][2]string{{"\nmrai 30s\n", "\nmrai " + mrai + "\n"}, {"\nseed 1\n", "\nseed " + seed + "\n"}} {
		if !strings.Contains(src, r[0]) {
			t.Fatalf("subcluster.lab has no %q line", strings.TrimSpace(r[0]))
		}
		src = strings.Replace(src, r[0], r[1], 1)
	}
	s, err := scenario.Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := scenario.NewRunner(&out).Run(s); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// TestSubClusterGolden pins the re-convergence time of the sub-cluster
// split at the script's own settings and at `mrai 2s`/`seed 9`: both
// take 2.005s, the controller's reaction to the failed link.
func TestSubClusterGolden(t *testing.T) {
	for _, c := range []struct{ mrai, seed string }{{"30s", "1"}, {"2s", "9"}} {
		out := runSubCluster(t, c.mrai, c.seed)
		if want := "measure fail-link: convergence 2.005s\n"; !strings.Contains(out, want) {
			t.Errorf("mrai %s seed %s: output lacks %q:\n%s", c.mrai, c.seed, want, out)
		}
	}
}

// TestSubClusterSurvivesSplit checks the paper's design goal: the
// intra-cluster link failure must not isolate the sub-clusters, so the
// probes between the members are delivered both ways before and after
// the split, after it over the legacy ASes.
func TestSubClusterSurvivesSplit(t *testing.T) {
	out := runSubCluster(t, "2s", "9")
	for _, want := range []string{
		"AS2 -> AS3: sent=1 delivered=1 loss=0.0%\nAS3 -> AS2: sent=1 delivered=1 loss=0.0%\nmeasure fail-link:",
		"AS2 -> AS3: sent=2 delivered=2 loss=0.0%\nAS3 -> AS2: sent=2 delivered=2 loss=0.0%\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("sub-clusters not reachable both ways; want %q in:\n%s", want, out)
		}
	}
}
