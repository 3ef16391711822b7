package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsNameTests reads the CI workflow and holds every
// `go test -run '<pattern>'` to the tests it means to run: each
// alternative of the pattern's top level must match a Test, Fuzz or
// Benchmark function of the package, or of one of the packages, the
// command runs. go test itself passes a pattern that matches nothing,
// so a step that names a deleted or moved test would stay green while
// running nothing. `-run xxx` beside -bench or -fuzz runs no test on
// purpose and is exempt.
func TestCIRunPatternsNameTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "run:"))
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, cmd := range strings.Split(line, "go test ")[1:] {
			pattern, pkgs, exempt := parseGoTest(cmd)
			if pattern == "" || exempt {
				continue
			}
			checked++
			funcs := testFuncs(t, pkgs)
			for _, alt := range alternatives(strings.SplitN(pattern, "/", 2)[0]) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Fatalf("ci.yml:%d: -run alternative %q: %v", i+1, alt, err)
				}
				if !matchesAny(re, funcs) {
					t.Errorf("ci.yml:%d: -run alternative %q matches no Test, Fuzz or Benchmark function in %v", i+1, alt, pkgs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no go test -run command found in ci.yml")
	}
}

// parseGoTest reads the arguments of one go test command line up to the
// first shell operator: its -run pattern, the package patterns it
// names, and whether the pattern is an exempt `xxx` beside -bench or
// -fuzz.
func parseGoTest(cmd string) (pattern string, pkgs []string, exempt bool) {
	var args []string
	var cur strings.Builder
	quote, inWord := byte(0), false
	flush := func() {
		if inWord {
			args = append(args, cur.String())
		}
		cur.Reset()
		inWord = false
	}
scan:
	for i := 0; i < len(cmd); i++ {
		c := cmd[i]
		switch {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
			cur.WriteByte(c)
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t':
			flush()
		case strings.IndexByte("&|;)>", c) >= 0:
			break scan
		default:
			cur.WriteByte(c)
			inWord = true
		}
	}
	flush()
	bench := false
	for i := 0; i < len(args); i++ {
		name, value, hasValue := strings.Cut(args[i], "=")
		switch name {
		case "-run":
			if !hasValue && i+1 < len(args) {
				i++
				value = args[i]
			}
			pattern = value
		case "-bench", "-fuzz":
			bench = true
			if !hasValue {
				i++
			}
		case "-skip", "-list", "-benchtime", "-fuzztime", "-fuzzminimizetime", "-count", "-timeout", "-overlay":
			if !hasValue {
				i++
			}
		default:
			if !strings.HasPrefix(args[i], "-") {
				pkgs = append(pkgs, args[i])
			}
		}
	}
	return pattern, pkgs, bench && pattern == "xxx"
}

// alternatives splits a regular expression at its top-level |.
func alternatives(pattern string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(out, pattern[start:])
}

var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)

// testFuncs lists the Test, Fuzz and Benchmark functions of the package
// patterns, which are directories relative to the module root, each
// with its subtree when it ends in "/...".
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	var out []string
	for _, pkg := range pkgs {
		dir, tree := strings.CutSuffix(pkg, "/...")
		dir = filepath.Clean(dir)
		if _, err := os.Stat(dir); err != nil {
			t.Fatalf("go test names package %q: %v", pkg, err)
		}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path != dir && (!tree || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
				out = append(out, m[1])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func matchesAny(re *regexp.Regexp, names []string) bool {
	for _, name := range names {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}
