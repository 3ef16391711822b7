// Package lint is the repository's zero-dependency static-analysis
// suite (stdlib go/ast + go/types only), mechanizing the invariants
// the reproduction's scientific claims rest on: seeded determinism,
// handled errors, and a documented evaluation API. It runs as tests:
// `go test ./internal/lint` is the gate — TestRepoLintClean runs every
// analyzer over the whole module, TestFixtures pins each check against
// the want markers under testdata/mod.
//
// A finding at a genuinely-safe site is suppressed in the source with
// an annotation naming the reason:
//
//	//lint:<check> <reason>
//
// on the flagged line or the line directly above it. The reason is
// mandatory — a bare marker is itself a finding — so every exemption
// documents why the invariant holds anyway.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"slices"
	"strings"
)

// Check keys: every diagnostic carries the key that a //lint:<check>
// annotation must name to suppress it.
const (
	// CheckMapOrder flags iteration over a map with result-visible,
	// order-sensitive side effects.
	CheckMapOrder = "maporder"
	// CheckGlobalRand flags the process-global math/rand functions
	// (seeded determinism requires a *rand.Rand stream).
	CheckGlobalRand = "globalrand"
	// CheckWallTime flags wall-clock reads (time.Now / time.Since /
	// time.Until) inside the simulation packages.
	CheckWallTime = "walltime"
	// CheckErrcheck flags dropped error returns.
	CheckErrcheck = "errcheck"
	// CheckDoc flags undocumented exported symbols in the
	// evaluation-layer packages.
	CheckDoc = "doc"
	// CheckAnnotation flags malformed //lint: markers (unknown check
	// key or missing reason). It is not itself suppressible.
	CheckAnnotation = "annotation"
)

// knownChecks is the set of valid annotation keys.
var knownChecks = map[string]bool{
	CheckMapOrder:   true,
	CheckGlobalRand: true,
	CheckWallTime:   true,
	CheckErrcheck:   true,
	CheckDoc:        true,
}

// Annotation is one parsed //lint:<check> <reason> marker.
type Annotation struct {
	// Check is the check key the marker suppresses.
	Check string
	// Reason is the mandatory justification text.
	Reason string
	// Line is the marker's source line.
	Line int
}

// annotationRe matches a //lint: marker line.
var annotationRe = regexp.MustCompile(`^//lint:(\S+)[ \t]*(.*)$`)

// fileAnnotations collects the //lint: markers of a parsed file,
// keyed by line number.
func fileAnnotations(fset *token.FileSet, f *ast.File) map[int][]Annotation {
	out := map[int][]Annotation{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := annotationRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			line := fset.Position(c.Pos()).Line
			out[line] = append(out[line], Annotation{
				Check:  m[1],
				Reason: strings.TrimSpace(m[2]),
				Line:   line,
			})
		}
	}
	return out
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding (filename relative to the module root).
	Pos token.Position
	// Check is the suppression key (see the Check constants).
	Check string
	// Message states the violated invariant at this site.
	Message string
}

// String renders the diagnostic in the conventional file:line:col
// form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one invariant checker, run once per loaded package.
type Analyzer struct {
	// Run analyzes one package.
	Run func(prog *Program, pkg *Package) []Diagnostic
}

// Analyzers returns the full suite in execution order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer(),
		ErrcheckAnalyzer(),
		DocAnalyzer(),
	}
}

// RunAnalyzers executes the given analyzers over the program and
// returns the surviving (unsuppressed) diagnostics, sorted by
// position, plus one diagnostic per malformed annotation.
func RunAnalyzers(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range prog.Packages {
			diags = append(diags, a.Run(prog, pkg)...)
		}
	}
	diags = suppress(prog, diags)
	diags = append(diags, checkAnnotations(prog)...)
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(
			cmp.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			cmp.Compare(a.Check, b.Check),
		)
	})
	return diags
}

// suppress drops diagnostics covered by a matching, well-formed
// annotation on the same line or the line directly above.
func suppress(prog *Program, diags []Diagnostic) []Diagnostic {
	byFile := map[string]map[int][]Annotation{}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			byFile[f.Name] = f.Annotations
		}
	}
	out := diags[:0]
	for _, d := range diags {
		if !suppressed(byFile[d.Pos.Filename], d) {
			out = append(out, d)
		}
	}
	return out
}

// suppressed reports whether d is covered by an annotation.
func suppressed(anns map[int][]Annotation, d Diagnostic) bool {
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, a := range anns[line] {
			if a.Check == d.Check && a.Reason != "" {
				return true
			}
		}
	}
	return false
}

// checkAnnotations flags malformed markers: an unknown check key or a
// missing reason. These are never suppressible — a bare marker would
// otherwise silently disable a real check.
func checkAnnotations(prog *Program) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, anns := range f.Annotations {
				for _, a := range anns {
					switch {
					case !knownChecks[a.Check]:
						out = append(out, Diagnostic{
							Pos:     token.Position{Filename: f.Name, Line: a.Line, Column: 1},
							Check:   CheckAnnotation,
							Message: fmt.Sprintf("unknown lint check %q (known: maporder, globalrand, walltime, errcheck, doc)", a.Check),
						})
					case a.Reason == "":
						out = append(out, Diagnostic{
							Pos:     token.Position{Filename: f.Name, Line: a.Line, Column: 1},
							Check:   CheckAnnotation,
							Message: fmt.Sprintf("//lint:%s marker without a reason — name why the site is safe", a.Check),
						})
					}
				}
			}
		}
	}
	return out
}
