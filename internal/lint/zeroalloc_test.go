package lint

import (
	"strings"
	"testing"
)

// TestDiffEscapes drives the escape gate's diff logic with canned
// observations: counts above the baseline fire at the site, counts
// below it fire the tighten-the-baseline finding, equal counts pass.
func TestDiffEscapes(t *testing.T) {
	baseline := escapeBaseline{
		"pkg.F": {"x escapes to heap": 1},
	}
	rep := map[string]Diagnostic{
		"pkg.F\x00x escapes to heap": {Pos: positionFrom("pkg/f.go", 10, 2), Check: CheckEscape},
		"pkg.G\x00y escapes to heap": {Pos: positionFrom("pkg/g.go", 20, 2), Check: CheckEscape},
	}

	equal := escapeBaseline{"pkg.F": {"x escapes to heap": 1}}
	if diags := diffEscapes(nil, baseline, equal, rep); len(diags) != 0 {
		t.Errorf("equal counts: want clean, got %v", diags)
	}

	over := escapeBaseline{
		"pkg.F": {"x escapes to heap": 2},
		"pkg.G": {"y escapes to heap": 1},
	}
	diags := diffEscapes(nil, baseline, over, rep)
	if len(diags) != 2 {
		t.Fatalf("over baseline: want 2 findings, got %v", diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "gained a heap escape") {
			t.Errorf("unexpected message: %s", d)
		}
	}
	if diags[0].Pos.Filename != "pkg/f.go" || diags[0].Pos.Line != 10 {
		t.Errorf("finding not anchored at the escape site: %s", diags[0])
	}

	diags = diffEscapes(nil, baseline, escapeBaseline{}, nil)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "tighten the baseline") {
		t.Errorf("improved path: want one tighten-the-baseline finding, got %v", diags)
	}
}

// TestHotFunctionSpans pins the manifest against the real repository:
// every declared hot function must resolve to a declaration (a rename
// must force a manifest update, not silently narrow the gate).
func TestHotFunctionSpans(t *testing.T) {
	prog := repoProgram(t)
	spans, err := hotFunctionSpans(prog)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, fns := range HotFunctions {
		n += len(fns)
	}
	if len(spans) < n {
		t.Errorf("resolved %d spans for %d manifest entries", len(spans), n)
	}
	if key := spans.find("does/not/exist.go", 1); key != "" {
		t.Errorf("find on unknown file returned %q", key)
	}
}
