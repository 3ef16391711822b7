// Command repolint runs the repository's static-analysis suite
// (internal/lint): three analyzers mechanizing the invariants the
// reproduction's results rest on. It is zero-dependency (stdlib
// go/ast + go/types), runs as both this CLI and a tier-1 test
// (internal/lint.TestRepoLintClean), and exits non-zero on any
// finding.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

// usage prints the full flag reference with the analyzer registry.
func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintf(w, `repolint — static analysis for the repo's determinism, error-handling and doc invariants

Usage:

  repolint [flags] [dir]

dir is any directory inside the module (default "."); the whole
module above it is loaded and analyzed. Pass "./..." for familiarity
— the suite always covers every non-test package.

Analyzers (select with -only / -skip, comma-separated):

`)
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(w, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(w, `
Findings at genuinely-safe sites are suppressed in the source with an
annotation on the flagged line or the line above it, reason mandatory:

  //lint:<check> <reason>

where <check> is the key printed with each finding (maporder,
globalrand, walltime, errcheck, doc).

Flags:

  -list
        print the analyzer names and exit
  -only string
        run only these analyzers (comma-separated names)
  -skip string
        skip these analyzers (comma-separated names)
  -v    verbose: print per-analyzer progress

Exit status: 0 clean, 1 findings, 2 usage or load error.

Examples:

  repolint ./...
  repolint -only determinism,errcheck
  repolint -skip doc -v
`)
}

func main() {
	list := flag.Bool("list", false, "print the analyzer names and exit")
	only := flag.String("only", "", "run only these analyzers (comma-separated)")
	skip := flag.String("skip", "", "skip these analyzers (comma-separated)")
	verbose := flag.Bool("v", false, "verbose: print per-analyzer progress")
	flag.Usage = usage
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	dir := "."
	if flag.NArg() > 0 {
		dir = strings.TrimSuffix(flag.Arg(0), "...")
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" || dir == "."+string(os.PathSeparator) {
			dir = "."
		}
	}
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "repolint: at most one directory argument")
		os.Exit(2)
	}

	prog, err := lint.Load(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "repolint: loaded %d packages from %s\n", len(prog.Packages), prog.Root)
	}

	analyzers, err := selectAnalyzers(*only, *skip)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repolint:", err)
		os.Exit(2)
	}
	if *verbose {
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "repolint: running %s\n", a.Name)
		}
	}
	diags := lint.RunAnalyzers(prog, analyzers)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d findings\n", len(diags))
		os.Exit(1)
	}
	if *verbose {
		fmt.Fprintln(os.Stderr, "repolint: clean")
	}
}

// selectAnalyzers applies -only and -skip to the registry.
func selectAnalyzers(only, skip string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	byName := map[string]*lint.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	parse := func(s string) (map[string]bool, error) {
		out := map[string]bool{}
		if s == "" {
			return out, nil
		}
		for _, name := range strings.Split(s, ",") {
			name = strings.TrimSpace(name)
			if byName[name] == nil {
				return nil, fmt.Errorf("unknown analyzer %q (see -list)", name)
			}
			out[name] = true
		}
		return out, nil
	}
	onlySet, err := parse(only)
	if err != nil {
		return nil, err
	}
	skipSet, err := parse(skip)
	if err != nil {
		return nil, err
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if len(onlySet) > 0 && !onlySet[a.Name] {
			continue
		}
		if skipSet[a.Name] {
			continue
		}
		out = append(out, a)
	}
	return out, nil
}
