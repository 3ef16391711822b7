package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ErrcheckAnalyzer flags calls whose error result is silently
// discarded (an expression statement, or a defer/go statement) in
// non-test code. A failure the caller never sees is how a lossy write
// or a half-torn-down emulation masquerades as a clean run. Sites
// where dropping the error is genuinely correct carry a
// //lint:errcheck annotation naming the reason.
//
// Two stdlib receivers are allowed without annotation because their
// Write methods are documented to never return an error:
// *bytes.Buffer and *strings.Builder. The fmt print family
// (Print/Printf/Println and their Fprint variants) is also allowed —
// that is the "lite" in errcheck-lite: formatted output is treated as
// best-effort rendering, and a genuinely lossy sink still surfaces at
// the Close/Flush/Write call the analyzer does flag.
func ErrcheckAnalyzer() *Analyzer {
	return &Analyzer{Run: runErrcheck}
}

// runErrcheck scans one package for discarded error results.
func runErrcheck(prog *Program, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	check := func(call *ast.CallExpr, how string) {
		if d, ok := droppedError(prog, pkg, call, how); ok {
			diags = append(diags, d)
		}
	}
	for _, f := range pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					check(call, "call")
				}
			case *ast.DeferStmt:
				check(n.Call, "deferred call")
			case *ast.GoStmt:
				check(n.Call, "goroutine call")
			}
			return true
		})
	}
	return diags
}

// droppedError reports a call whose error result is discarded.
func droppedError(prog *Program, pkg *Package, call *ast.CallExpr, how string) (Diagnostic, bool) {
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return Diagnostic{}, false
	}
	if !returnsError(tv.Type) {
		return Diagnostic{}, false
	}
	if allowedErrorDrop(pkg, call) {
		return Diagnostic{}, false
	}
	name := calleeName(pkg, call)
	return Diagnostic{
		Pos:     prog.Position(call.Pos()),
		Check:   CheckErrcheck,
		Message: fmt.Sprintf("%s to %s drops its error result; handle it or annotate why it cannot matter", how, name),
	}, true
}

// returnsError reports whether a call result type carries an error
// (the single result, or the last of a tuple).
func returnsError(t types.Type) bool {
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(tuple.Len() - 1).Type()
	}
	return types.AssignableTo(t, types.Universe.Lookup("error").Type())
}

// allowedErrorDrop is the small builtin allowlist: never-failing
// stdlib writers and stdout prints.
func allowedErrorDrop(pkg *Package, call *ast.CallExpr) bool {
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	if recv := sig.Recv(); recv != nil {
		switch recv.Type().String() {
		case "*bytes.Buffer", "*strings.Builder":
			return true
		}
		return false
	}
	if fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return true
		}
	}
	return false
}

// calleeName renders the callee for the message ("pkg.Func" or
// "Type.Method").
func calleeName(pkg *Package, call *ast.CallExpr) string {
	fn := calleeFunc(pkg, call)
	if fn == nil {
		return "function"
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return pathBase(fn.Pkg().Path()) + "." + fn.Name()
	}
	return fn.Name()
}
