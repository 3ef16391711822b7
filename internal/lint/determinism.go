package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// determinismScope lists the simulation / result-producing package
// directories (module-root-relative, subpackages included) whose code
// must be deterministic per seed: any order-sensitive map iteration,
// process-global randomness or wall-clock read here can change a
// published number between two runs of the same spec.
var determinismScope = []string{
	"internal/sim",
	"internal/bgp",
	"internal/experiment",
	"internal/lab",
	"internal/topology",
	"internal/netem",
	"internal/figures",
	"internal/policy",
	// The cluster side of a hybrid run: the controller and its eBGP
	// sessions react to kernel events inside the seeded simulation.
	"internal/core",
	// The service layer executes the same sweeps: a wall-clock read or
	// order-sensitive map walk in the daemon would break its
	// byte-equality pin against the CLI path.
	"internal/labd",
	// Path-exploration counts in every lab.Result come from the event
	// log, and probe loss from the probe engine.
	"internal/monitor",
	// The switches' flow tables and probe forwarding.
	"internal/sdn",
	// Sealed run records and the scenario runner's reports.
	"internal/artifact",
	"internal/scenario",
	// The sorted-key helpers every other package walks maps through.
	"internal/idr",
}

// inDeterminismScope reports whether the package is covered.
func inDeterminismScope(pkg *Package) bool {
	for _, p := range determinismScope {
		if pkg.Dir == p || strings.HasPrefix(pkg.Dir, p+"/") {
			return true
		}
	}
	return false
}

// DeterminismAnalyzer checks the seeded-determinism invariant in the
// simulation packages: map iteration must not have order-sensitive,
// result-visible side effects (Go randomizes map order per run), and
// the maps.Keys/Values/All iterators may only feed a sort; randomness
// must come from a seeded *rand.Rand, never the global math/rand
// functions; and virtual-time code must not read the wall clock.
// Checks: maporder, globalrand, walltime.
func DeterminismAnalyzer() *Analyzer {
	return &Analyzer{Run: runDeterminism}
}

// runDeterminism applies the three determinism checks to one package.
func runDeterminism(prog *Program, pkg *Package) []Diagnostic {
	if !inDeterminismScope(pkg) {
		return nil
	}
	var diags []Diagnostic
	// sortedArgs holds the calls passed straight to a slices.Sorted*
	// collector; ast.Inspect visits such a collector before its
	// argument.
	sortedArgs := map[*ast.CallExpr]bool{}
	for _, f := range pkg.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if d, ok := checkMapRange(prog, pkg, n); ok {
					diags = append(diags, d)
				}
			case *ast.CallExpr:
				if d, ok := checkDeterminismCall(prog, pkg, n, sortedArgs); ok {
					diags = append(diags, d)
				}
			}
			return true
		})
	}
	return diags
}

// checkDeterminismCall flags global math/rand draws, wall-clock reads
// and map iterators that do not go straight into a sort.
func checkDeterminismCall(prog *Program, pkg *Package, call *ast.CallExpr, sortedArgs map[*ast.CallExpr]bool) (Diagnostic, bool) {
	fn := calleeFunc(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return Diagnostic{}, false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return Diagnostic{}, false
	}
	switch fn.Pkg().Path() {
	case "slices":
		switch fn.Name() {
		case "Sorted", "SortedFunc", "SortedStableFunc":
			if arg, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr); ok {
				sortedArgs[arg] = true
			}
		}
	case "maps":
		switch fn.Name() {
		case "Keys", "Values", "All":
			if sortedArgs[call] {
				return Diagnostic{}, false
			}
			return Diagnostic{
				Pos:     prog.Position(call.Pos()),
				Check:   CheckMapOrder,
				Message: fmt.Sprintf("maps.%s yields in randomized map order; pass it straight to slices.Sorted or slices.SortedFunc, or range over idr.SortedKeys", fn.Name()),
			}, true
		}
	case "math/rand", "math/rand/v2":
		// Constructors build seeded streams — exactly what the
		// invariant wants; everything else draws from the process
		// global.
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return Diagnostic{}, false
		}
		return Diagnostic{
			Pos:     prog.Position(call.Pos()),
			Check:   CheckGlobalRand,
			Message: fmt.Sprintf("global %s.%s breaks seeded determinism; draw from a seeded *rand.Rand", pathBase(fn.Pkg().Path()), fn.Name()),
		}, true
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return Diagnostic{
				Pos:     prog.Position(call.Pos()),
				Check:   CheckWallTime,
				Message: fmt.Sprintf("time.%s reads the wall clock inside the simulation packages; use the sim clock (annotate wall-budget sites)", fn.Name()),
			}, true
		}
	}
	return Diagnostic{}, false
}

// calleeFunc resolves a call's callee to its function object, if it
// is a plain (non-builtin) function or method.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	return fn
}

// pathBase returns the last element of an import path.
func pathBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// checkMapRange flags a range over a map unless its body is provably
// order-insensitive. A walk whose order matters ranges over
// idr.SortedKeys instead, or carries an annotation saying why it
// cannot.
func checkMapRange(prog *Program, pkg *Package, rng *ast.RangeStmt) (Diagnostic, bool) {
	tv, ok := pkg.Info.Types[rng.X]
	if !ok {
		return Diagnostic{}, false
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return Diagnostic{}, false
	}
	ins := orderInsensitivity{pkg: pkg, rangeKey: rangeKeyObject(pkg, rng)}
	if ins.blockOK(rng.Body) {
		return Diagnostic{}, false
	}
	return Diagnostic{
		Pos:     prog.Position(rng.Pos()),
		Check:   CheckMapOrder,
		Message: "map iteration order is randomized and this loop body is order-sensitive; range over idr.SortedKeys or annotate why the order cannot affect results",
	}, true
}

// rangeKeyObject returns the object of the loop's key variable, when
// it is a plain identifier.
func rangeKeyObject(pkg *Package, rng *ast.RangeStmt) types.Object {
	id, ok := rng.Key.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pkg.Info.Uses[id]
}

// orderInsensitivity decides whether a loop body cannot observe the
// iteration order. The whitelist is deliberately narrow — integer
// commutative accumulation, writes keyed by the (distinct) range key,
// deletes, and per-iteration locals; anything else (calls, float
// accumulation, early exits, appends) is treated as order-sensitive and
// needs sorted keys or an annotation.
type orderInsensitivity struct {
	pkg      *Package
	rangeKey types.Object
}

// blockOK reports whether every statement in the block is
// order-insensitive.
func (o orderInsensitivity) blockOK(b *ast.BlockStmt) bool {
	for _, s := range b.List {
		if !o.stmtOK(s) {
			return false
		}
	}
	return true
}

// stmtOK reports whether one statement is order-insensitive.
func (o orderInsensitivity) stmtOK(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.EmptyStmt:
		return true
	case *ast.BranchStmt:
		// continue skips an iteration (a pure filter); break/goto
		// select an order-dependent stopping point.
		return s.Tok == token.CONTINUE
	case *ast.IncDecStmt:
		return o.integerLvalue(s.X)
	case *ast.AssignStmt:
		return o.assignOK(s)
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		// delete removes a set of keys; the final state does not
		// depend on removal order.
		if id, ok := call.Fun.(*ast.Ident); ok {
			if b, ok := o.pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
				return true
			}
		}
		return false
	case *ast.IfStmt:
		if s.Init != nil && !o.stmtOK(s.Init) {
			return false
		}
		if !o.pureExpr(s.Cond) {
			return false
		}
		if !o.blockOK(s.Body) {
			return false
		}
		if s.Else != nil {
			switch e := s.Else.(type) {
			case *ast.BlockStmt:
				return o.blockOK(e)
			case *ast.IfStmt:
				return o.stmtOK(e)
			default:
				return false
			}
		}
		return true
	case *ast.ForStmt:
		if s.Init != nil && !o.stmtOK(s.Init) {
			return false
		}
		if s.Cond != nil && !o.pureExpr(s.Cond) {
			return false
		}
		if s.Post != nil && !o.stmtOK(s.Post) {
			return false
		}
		return o.blockOK(s.Body)
	case *ast.RangeStmt:
		// A nested map range is checked at its own site; here only
		// the body's order effects matter.
		return o.blockOK(s.Body)
	case *ast.BlockStmt:
		return o.blockOK(s)
	case *ast.DeclStmt:
		return true
	default:
		return false
	}
}

// assignOK allows per-iteration locals (:=), integer commutative
// accumulation (+= -= |= &= ^= *=), and writes indexed by the range
// key (distinct per iteration, so order-free).
func (o orderInsensitivity) assignOK(s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.DEFINE:
		for _, rhs := range s.Rhs {
			if !o.pureExpr(rhs) {
				return false
			}
		}
		return true
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
		return len(s.Lhs) == 1 && o.integerLvalue(s.Lhs[0]) && o.pureExpr(s.Rhs[0])
	case token.ASSIGN:
		for _, lhs := range s.Lhs {
			if !o.keyIndexedOrLocal(lhs) {
				return false
			}
		}
		for _, rhs := range s.Rhs {
			if !o.pureExpr(rhs) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// keyIndexedOrLocal reports whether an assignment target is the blank
// identifier or an index expression keyed by the range key variable —
// a distinct slot per iteration.
func (o orderInsensitivity) keyIndexedOrLocal(lhs ast.Expr) bool {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return true
	}
	idx, ok := lhs.(*ast.IndexExpr)
	if !ok || o.rangeKey == nil {
		return false
	}
	id, ok := ast.Unparen(idx.Index).(*ast.Ident)
	return ok && o.pkg.Info.Uses[id] == o.rangeKey
}

// integerLvalue reports whether the expression has integer type —
// integer accumulation commutes exactly; float accumulation rounds
// differently per order.
func (o orderInsensitivity) integerLvalue(e ast.Expr) bool {
	tv, ok := o.pkg.Info.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// pureExpr reports whether evaluating the expression cannot have side
// effects: no calls except len/cap and no channel receives.
func (o orderInsensitivity) pureExpr(e ast.Expr) bool {
	pure := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			id, ok := ast.Unparen(n.Fun).(*ast.Ident)
			if !ok {
				pure = false
				return false
			}
			b, ok := o.pkg.Info.Uses[id].(*types.Builtin)
			if !ok || (b.Name() != "len" && b.Name() != "cap") {
				pure = false
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pure = false
				return false
			}
		}
		return true
	})
	return pure
}
