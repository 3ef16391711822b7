package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// HotFunctions is the declared zero-alloc manifest: the functions on
// the emulation hot paths (PR 1 made them allocation-free; ROADMAP
// item 3 asks for the CI check that they stay that way). The escape
// gate compiles their packages with -gcflags=-m and fails on any
// heap-escape diagnostic inside these functions that the committed
// baseline (zeroalloc_baseline.json) does not already allow — so a
// change that silently re-introduces a per-UPDATE allocation fails
// the build instead of shifting a benchmark percentile.
//
// Keys are "<import path>" → function names; methods are named
// "Type.method" (pointer receivers without the star).
var HotFunctions = map[string][]string{
	"repro/internal/bgp/rib": {
		// The per-UPDATE decision path, its candidate index, and the
		// longest-prefix-match lookup.
		"Table.decide", "Table.setBest", "Table.SetAdjIn", "Table.WithdrawAdjIn",
		"Table.indexCand", "Table.unindexCand", "searchCands", "Better", "Table.Lookup",
	},
	"repro/internal/bgp": {
		// The export hot path: AS-path prepends served from the
		// per-router interning arena.
		"attrArena.prepend", "hashPath",
	},
	"repro/internal/bgp/wire": {
		// The UPDATE encode path: one header-reserved buffer.
		"Marshal", "estimateBody", "estimateUpdate",
		"appendUpdate", "appendPrefixes", "appendAttrHeader", "appendAttrs",
	},
	"repro/internal/sim": {
		// Timer re-arm: re-keyed in place (heap.Fix or wheel slot),
		// no per-reset event.
		"event.Reset", "event.Stop",
		// The timer wheel and the batched drain: scheduling, slot
		// insert/flush and batch refill all run per event.
		"Kernel.schedule", "timerWheel.insert", "Kernel.flushSlot",
		"Kernel.wheelRelease", "Kernel.nextEvent", "Kernel.refill",
		"Kernel.peekQueue",
	},
	"repro/internal/netem": {
		// The per-message send path, loss model included.
		"Endpoint.Send", "Endpoint.SendUnreliable", "Endpoint.departAt",
		"Link.lossPenalty", "Link.rand",
	},
}

// escapeBaselineFile is the committed allowance, relative to the
// module root: per hot function, the -gcflags=-m heap-escape messages
// that are understood and accepted (error paths, one-time lazy
// initialization, the returned buffer), with their counts.
const escapeBaselineFile = "internal/lint/zeroalloc_baseline.json"

// escapeBaseline maps "pkg.func" → message → allowed count.
type escapeBaseline map[string]map[string]int

// ZeroAllocAnalyzer builds the escape-gate analyzer over the declared
// HotFunctions manifest and the committed baseline.
func ZeroAllocAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "zeroalloc",
		Doc:  "no new heap escapes (-gcflags=-m) inside the declared hot functions",
		RunProgram: func(prog *Program) ([]Diagnostic, error) {
			baseline, err := loadEscapeBaseline(prog.Root)
			if err != nil {
				return nil, err
			}
			observed, diagsAt, err := observeEscapes(prog)
			if err != nil {
				return nil, err
			}
			return diffEscapes(prog, baseline, observed, diagsAt), nil
		},
	}
}

// loadEscapeBaseline reads the committed allowance.
func loadEscapeBaseline(root string) (escapeBaseline, error) {
	data, err := os.ReadFile(filepath.Join(root, escapeBaselineFile))
	if os.IsNotExist(err) {
		return escapeBaseline{}, nil
	}
	if err != nil {
		return nil, err
	}
	var b escapeBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", escapeBaselineFile, err)
	}
	return b, nil
}

// escapeRe matches one compiler diagnostic line.
var escapeRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)

// observeEscapes compiles the manifest packages with -gcflags=-m and
// collects the heap-escape diagnostics inside the hot functions:
// "pkg.func" → message → count, plus a representative position per
// (func, message).
func observeEscapes(prog *Program) (escapeBaseline, map[string]Diagnostic, error) {
	spans, err := hotFunctionSpans(prog)
	if err != nil {
		return nil, nil, err
	}
	var pkgs []string
	for path := range HotFunctions {
		rel := strings.TrimPrefix(path, prog.ModulePath+"/")
		pkgs = append(pkgs, "./"+filepath.ToSlash(rel))
	}
	sort.Strings(pkgs)
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m"}, pkgs...)...)
	cmd.Dir = prog.Root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out)
	}
	observed := escapeBaseline{}
	reps := map[string]Diagnostic{}
	for _, line := range strings.Split(string(out), "\n") {
		m := escapeRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		file := filepath.ToSlash(m[1])
		lineNo := atoi(m[2])
		key := spans.find(file, lineNo)
		if key == "" {
			continue
		}
		if observed[key] == nil {
			observed[key] = map[string]int{}
		}
		observed[key][msg]++
		if _, ok := reps[key+"\x00"+msg]; !ok {
			reps[key+"\x00"+msg] = Diagnostic{
				Pos:   positionFrom(file, lineNo, atoi(m[3])),
				Check: CheckEscape,
			}
		}
	}
	return observed, reps, nil
}

// diffEscapes reports observed escapes the baseline does not allow,
// and baseline entries that no longer occur (so the allowance shrinks
// with the code instead of rotting).
func diffEscapes(prog *Program, baseline, observed escapeBaseline, reps map[string]Diagnostic) []Diagnostic {
	var diags []Diagnostic
	var keys []string
	for key := range observed {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		var msgs []string
		for msg := range observed[key] {
			msgs = append(msgs, msg)
		}
		sort.Strings(msgs)
		for _, msg := range msgs {
			n := observed[key][msg]
			allowed := baseline[key][msg]
			if n > allowed {
				d := reps[key+"\x00"+msg]
				d.Message = fmt.Sprintf("hot function %s gained a heap escape (%q ×%d, baseline allows %d); keep the hot path allocation-free or regenerate the baseline with repolint -write-escape-baseline and justify it in review",
					key, msg, n, allowed)
				diags = append(diags, d)
			}
		}
	}
	var bkeys []string
	for key := range baseline {
		bkeys = append(bkeys, key)
	}
	sort.Strings(bkeys)
	for _, key := range bkeys {
		var msgs []string
		for msg := range baseline[key] {
			msgs = append(msgs, msg)
		}
		sort.Strings(msgs)
		for _, msg := range msgs {
			if observed[key][msg] < baseline[key][msg] {
				diags = append(diags, Diagnostic{
					Pos:   positionFrom(escapeBaselineFile, 1, 1),
					Check: CheckEscape,
					Message: fmt.Sprintf("baseline allows %q ×%d in %s but only %d observed — the hot path improved; tighten the baseline with repolint -write-escape-baseline",
						msg, baseline[key][msg], key, observed[key][msg]),
				})
			}
		}
	}
	return diags
}

// WriteEscapeBaseline regenerates the committed allowance from the
// current compiler output.
func WriteEscapeBaseline(prog *Program) error {
	observed, _, err := observeEscapes(prog)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(observed, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(filepath.Join(prog.Root, escapeBaselineFile), data, 0o644)
}

// funcSpan is one hot function's source extent.
type funcSpan struct {
	file       string
	start, end int
	key        string
}

// funcSpans locates manifest functions in the loaded program.
type funcSpans []funcSpan

// find returns the hot-function key covering file:line, or "".
func (s funcSpans) find(file string, line int) string {
	for _, sp := range s {
		if sp.file == file && sp.start <= line && line <= sp.end {
			return sp.key
		}
	}
	return ""
}

// hotFunctionSpans resolves every manifest entry to its declaration's
// line span; a manifest entry that matches no declaration is an error
// (the manifest must not rot as code is renamed).
func hotFunctionSpans(prog *Program) (funcSpans, error) {
	var spans funcSpans
	for path, fns := range HotFunctions {
		pkg := prog.Lookup(path)
		if pkg == nil {
			return nil, fmt.Errorf("zeroalloc: manifest package %s not loaded", path)
		}
		want := map[string]bool{}
		for _, fn := range fns {
			want[fn] = true
		}
		found := map[string]bool{}
		for _, f := range pkg.Files {
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				key := funcKey(fd)
				if !want[key] {
					continue
				}
				found[key] = true
				spans = append(spans, funcSpan{
					file:  filepath.ToSlash(filepath.Join(pkg.Dir, pathBase(f.Name))),
					start: prog.Fset.Position(fd.Pos()).Line,
					end:   prog.Fset.Position(fd.End()).Line,
					key:   path + "." + key,
				})
			}
		}
		for _, fn := range fns {
			if !found[fn] {
				return nil, fmt.Errorf("zeroalloc: manifest function %s.%s not found — update the HotFunctions manifest", path, fn)
			}
		}
	}
	return spans, nil
}

// funcKey names a declaration the way the manifest does:
// "Type.method" or "Func".
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// positionFrom builds a root-relative position.
func positionFrom(file string, line, col int) token.Position {
	return token.Position{Filename: file, Line: line, Column: col}
}

// atoi parses a digits-only string (pre-matched by regexp).
func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}
