package scenario

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lab"
)

// FuzzScenario hardens the configuration half of the DSL: an arbitrary
// script, run up to its first "start", either succeeds or fails with
// "scenario: line N (verb): ..." naming one of its own statements — it
// never panics and never blames a line it does not have. Scripts whose
// topology has more than 64 ASes are skipped, so every input builds its
// graph in milliseconds.
func FuzzScenario(f *testing.F) {
	scripts, err := filepath.Glob("../../examples/scenarios/*.lab")
	if err != nil {
		f.Fatal(err)
	}
	if len(scripts) == 0 {
		f.Fatal("no shipped scenarios to seed from")
	}
	for _, path := range scripts {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		var prefixes []string
		for i, st := range s.statements {
			if st.verb == "start" {
				s.statements = s.statements[:i]
				break
			}
			if st.verb == "topology" {
				if spec, err := lab.ParseTopo(st.args); err == nil && max(spec.N, spec.M, spec.Nodes()) > 64 {
					t.Skip("topology over 64 ASes")
				}
			}
			prefixes = append(prefixes, fmt.Sprintf("scenario: line %d (%s): ", st.line, st.verb))
		}
		err = NewRunner(io.Discard).Run(s)
		if err == nil {
			return
		}
		for _, p := range prefixes {
			if strings.HasPrefix(err.Error(), p) {
				return
			}
		}
		t.Fatalf("error names no statement of the script: %v", err)
	})
}
