package lab

import (
	"bufio"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzSpecStrings holds the three spec parsers to their String forms:
// whatever ParseTopoString, ParsePlacementString or ParsePolicy
// accepts renders to a string that parses back to an equal value with
// the same rendering. It is seeded with TestTopoSpecRoundTrip's table
// and with the topologies, placements and policies of the shipped
// scenario scripts.
func FuzzSpecStrings(f *testing.F) {
	for _, s := range []string{"clique 16", "line 4", "ring 6", "star 5", "tree 7 2", "grid 4 4", "internet 20", "er 10 0.4", "ba 12 2"} {
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
		lines := bufio.NewScanner(file)
		for lines.Scan() {
			verb, rest, _ := strings.Cut(strings.TrimSpace(lines.Text()), " ")
			if verb == "topology" || verb == "sdn" || verb == "policy" {
				f.Add(rest)
			}
		}
		file.Close()
		if err := lines.Err(); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		if topo, err := ParseTopoString(s); err == nil {
			roundTrips(t, s, topo, ParseTopoString)
		}
		if p, err := ParsePlacementString(s); err == nil {
			roundTrips(t, s, p, ParsePlacementString)
		}
		if pol, err := ParsePolicy(s); err == nil {
			roundTrips(t, s, pol, ParsePolicy)
		}
	})
}

// roundTrips fails t unless v, parsed from in, renders to a string
// that parse turns back into v, rendering the same again.
func roundTrips[T interface{ String() string }](t *testing.T, in string, v T, parse func(string) (T, error)) {
	t.Helper()
	out := v.String()
	back, err := parse(out)
	if err != nil {
		t.Fatalf("%q parses to %+v, rendered %q, which does not parse: %v", in, v, out, err)
	}
	if !reflect.DeepEqual(back, v) || back.String() != out {
		t.Fatalf("%q parses to %+v, rendered %q, which parses to %+v (%q)", in, v, out, back, back.String())
	}
}
