package repro

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mutant is one planted bug kept under testdata/mutants/<name>/: the
// source file it edits (mutant.json), the text it replaces there
// (search) and what it puts in its place (replace), and the tests of
// that file's package that must catch it.
type mutant struct {
	File  string   `json:"file"`
	Why   string   `json:"why"`
	Tests []string `json:"tests"`

	name            string
	search, replace []byte
}

// loadMutants reads every mutant under testdata/mutants.
func loadMutants(t *testing.T) []mutant {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join("testdata", "mutants", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no mutants under testdata/mutants")
	}
	var out []mutant
	for _, dir := range dirs {
		var m mutant
		blob, err := os.ReadFile(filepath.Join(dir, "mutant.json"))
		if err == nil {
			err = json.Unmarshal(blob, &m)
		}
		if err == nil {
			m.search, err = os.ReadFile(filepath.Join(dir, "search"))
		}
		if err == nil {
			m.replace, err = os.ReadFile(filepath.Join(dir, "replace"))
		}
		if err != nil {
			t.Fatalf("mutant %s: %v", dir, err)
		}
		m.name = filepath.Base(dir)
		if m.File == "" || len(m.Tests) == 0 || len(m.search) == 0 {
			t.Fatalf("mutant %s names no file, no test or no search text", m.name)
		}
		out = append(out, m)
	}
	return out
}

// TestMutantsAreCaught applies each mutant to a copy of its file, builds
// the file's package with the copy in its place (go test -overlay) and
// runs the mutant's tests there: the package must build, and every
// named test must fail. A search text that no longer occurs exactly
// once in the file is a stale mutant, and fails too.
func TestMutantsAreCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs one package test binary per mutant")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range loadMutants(t) {
		t.Run(m.name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(root, m.File))
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(src, m.search); n != 1 {
				t.Fatalf("stale mutant: its search text occurs %d times in %s, want once", n, m.File)
			}
			tmp := t.TempDir()
			mutated := filepath.Join(tmp, filepath.Base(m.File))
			if err := os.WriteFile(mutated, bytes.Replace(src, m.search, m.replace, 1), 0o644); err != nil {
				t.Fatal(err)
			}
			overlay, err := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(root, m.File): mutated}})
			if err != nil {
				t.Fatal(err)
			}
			overlayFile := filepath.Join(tmp, "overlay.json")
			if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
				t.Fatal(err)
			}
			run := "^(" + strings.Join(m.Tests, "|") + ")$"
			cmd := exec.Command(goTool, "test", "-overlay="+overlayFile, "-count=1", "-run", run, "./"+filepath.ToSlash(filepath.Dir(m.File)))
			cmd.Dir = root
			out, err := cmd.CombinedOutput()
			if err == nil {
				t.Fatalf("%s (%s): every named test passed\n%s", m.name, m.Why, out)
			}
			if bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")) {
				t.Fatalf("%s: the mutated package does not build\n%s", m.name, out)
			}
			for _, name := range m.Tests {
				if !regexp.MustCompile(`(?m)^\s*--- FAIL: ` + regexp.QuoteMeta(name) + `\b`).Match(out) {
					t.Errorf("%s (%s): %s did not fail\n%s", m.name, m.Why, name, out)
				}
			}
		})
	}
}
