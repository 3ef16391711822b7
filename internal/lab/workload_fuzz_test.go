package lab

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseWorkload holds the schedule parser behind the -workload
// flag and the scenario DSL's "at" directive to two properties: it
// never panics, and whatever it accepts is a valid schedule that,
// written back as "at" clauses, parses to the same Workload. It is
// seeded with TestParseWorkload's inputs and with the "at" lines of
// the shipped scenario scripts, one script's schedule per seed.
func FuzzParseWorkload(f *testing.F) {
	f.Add(parseWorkloadGood)
	for _, s := range parseWorkloadBad {
		f.Add(s)
	}
	scripts, err := filepath.Glob("../../examples/scenarios/*.lab")
	if err != nil || len(scripts) == 0 {
		f.Fatalf("no scenario scripts (%v)", err)
	}
	for _, path := range scripts {
		file, err := os.Open(path)
		if err != nil {
			f.Fatal(err)
		}
		var at []string
		lines := bufio.NewScanner(file)
		for lines.Scan() {
			if line := strings.TrimSpace(lines.Text()); strings.HasPrefix(line, "at ") {
				at = append(at, line)
			}
		}
		file.Close()
		if err := lines.Err(); err != nil {
			f.Fatal(err)
		}
		if len(at) > 0 {
			f.Add(strings.Join(at, "\n"))
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		w, err := ParseWorkload(s)
		if err != nil {
			return
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("%q parses to %+v, which Validate refuses: %v", s, w, err)
		}
		out := renderWorkload(w)
		back, err := ParseWorkload(out)
		if err != nil {
			t.Fatalf("%q parses to %+v, rendered %q, which does not parse: %v", s, w, out, err)
		}
		if !reflect.DeepEqual(back, w) {
			t.Fatalf("%q parses to %+v, rendered %q, which parses to %+v", s, w, out, back)
		}
	})
}

// renderWorkload writes w as "at <At> <verb> [targets]" clauses, the
// targets left out when they are zero.
func renderWorkload(w Workload) string {
	clauses := make([]string, len(w))
	for i, ev := range w {
		clause := fmt.Sprintf("at %s %s", ev.At, ev.Kind.Verb())
		switch {
		case ev.A != 0 || ev.B != 0:
			clause += fmt.Sprintf(" %d %d", uint32(ev.A), uint32(ev.B))
		case ev.AS != 0:
			clause += fmt.Sprintf(" %d", uint32(ev.AS))
		}
		clauses[i] = clause
	}
	return strings.Join(clauses, "; ")
}
