package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// markerRe matches a want marker; quoteRe pulls the expected
// substrings out of its tail. `// want "x"` expects a diagnostic on
// the same line, `// want-below "x"` on the next line, and
// `// want-below:N "x"` N lines down (for sites where an adjacent
// comment would change the analyzed code, e.g. doc comments).
var (
	markerRe = regexp.MustCompile(`// want(-below(?::(\d+))?)? (.+)$`)
	quoteRe  = regexp.MustCompile(`"([^"]*)"`)
)

// TestFixtures runs the analyzers over the fixture module and checks
// every finding against the want markers: each marker must match a
// diagnostic on its line, and no diagnostic may be unaccounted for
// (which is what proves the //lint: suppressions in the fixtures
// actually suppress).
func TestFixtures(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	diags := RunAnalyzers(prog, Analyzers())
	if len(diags) == 0 {
		t.Fatal("fixture run produced no diagnostics at all")
	}

	type site struct {
		file string
		line int
	}
	wants := map[site][]string{}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			data, err := os.ReadFile(filepath.Join(prog.Root, f.Name))
			if err != nil {
				t.Fatal(err)
			}
			for i, text := range strings.Split(string(data), "\n") {
				m := markerRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				line := i + 1
				if m[1] != "" {
					off := 1
					if m[2] != "" {
						off, _ = strconv.Atoi(m[2])
					}
					line += off
				}
				for _, q := range quoteRe.FindAllStringSubmatch(m[3], -1) {
					s := site{f.Name, line}
					wants[s] = append(wants[s], q[1])
				}
			}
		}
	}

	for _, d := range diags {
		s := site{d.Pos.Filename, d.Pos.Line}
		text := d.Check + ": " + d.Message
		idx := -1
		for i, w := range wants[s] {
			if w != "" && strings.Contains(text, w) {
				idx = i
				break
			}
		}
		if idx < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[s][idx] = ""
	}
	for s, ws := range wants {
		for _, w := range ws {
			if w != "" {
				t.Errorf("%s:%d: want a diagnostic matching %q, got none", s.file, s.line, w)
			}
		}
	}
}
