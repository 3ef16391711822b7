package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// CanonicalConfig parameterizes the canonical-completeness check: the
// package holding the spec structs, the root struct names, the file
// holding the canonical encoders, and the explicit exclusion lists.
type CanonicalConfig struct {
	// Package is the import path of the spec package.
	Package string
	// Roots names the root spec structs (every struct reachable from
	// them through fields is covered too).
	Roots []string
	// File is the base name of the file holding the canonical
	// encoders; a field counts as serialized when that file reads it.
	File string
	// ExcludeFields maps "Type.Field" to the reason the field is
	// deliberately NOT part of the canonical serialization.
	ExcludeFields map[string]string
	// ExcludeTypes maps a struct type name to the reason its fields
	// are covered wholesale (e.g. serialized via String()), stopping
	// the per-field recursion there.
	ExcludeTypes map[string]string
}

// CanonicalContract is the repository's configuration: every
// result-affecting lab.Trial / lab.Sweep field must be serialized by
// Canonical() in canonical.go or listed here with the reason it
// cannot change a successful result. Adding a struct field without
// serializing or excluding it fails the build — that is the artifact
// store's cache-invalidation contract (a field the address ignores
// would silently serve stale cells).
var CanonicalContract = CanonicalConfig{
	Package: "repro/internal/lab",
	Roots:   []string{"Trial", "Sweep"},
	File:    "canonical.go",
	ExcludeFields: map[string]string{
		// Trial.Seed and Trial.TopoSeed are derived per (cell, run)
		// from the serialized BaseSeed + SeedPolicy, so the sweep
		// fields cover them.
		"Trial.Seed":     "derived from the serialized Sweep.BaseSeed via SeedPolicy",
		"Trial.TopoSeed": "pinned to the serialized Sweep.BaseSeed by Sweep.trialFor",
		// Execution guards and knobs: they can fail or reschedule a
		// run but never change a successful result.
		"Trial.WallLimit":   "wall-clock guard; can only turn a run into a failure",
		"Sweep.Name":        "presentation label, echoed in output only",
		"Sweep.Parallelism": "execution knob; results are identical at any parallelism",
		"Sweep.Progress":    "progress callback, observation only",
		"Sweep.Cache":       "cache hook; a hit is bit-identical to the run it replaces",
		"Sweep.Snapshots":   "warm-up cache hook; a restored warm-up is byte-identical to a fresh one",
		"Sweep.Tolerate":    "failure-tolerance knob; cannot change a successful result",
		"Sweep.Retries":     "failure-tolerance knob; retries re-run the identical trial",
		"Sweep.Inject":      "chaos test seam; can only fail a run, never alter one",
		"Sweep.Stop":        "graceful-drain signal; stops scheduling, never alters a completed run",
	},
	ExcludeTypes: map[string]string{
		// These are serialized wholesale through their String() form,
		// whose round-trip is pinned by their own parse tests.
		"TopoSpec":   "serialized via String(); ParseTopo round-trip is pinned",
		"Placement":  "serialized via String(); parse round-trip is pinned",
		"PolicySpec": "serialized via String(); ParsePolicy round-trip is pinned",
		// The axis serializes through Name() + Label() (and the
		// duration disambiguation), which render every value kind.
		"Axis": "serialized via Name()+Label(), which render every value kind",
	},
}

// CanonicalAnalyzer checks the Canonical() cache-invalidation
// contract with the repository configuration (CanonicalContract).
func CanonicalAnalyzer() *Analyzer {
	return CanonicalAnalyzerWith(CanonicalContract)
}

// CanonicalAnalyzerWith builds the canonical-completeness analyzer
// over an explicit configuration (the fixture tests use small spec
// packages of their own).
func CanonicalAnalyzerWith(cfg CanonicalConfig) *Analyzer {
	return &Analyzer{
		Name: "canonical",
		Doc:  "every result-affecting spec field is serialized by Canonical() or explicitly excluded",
		RunProgram: func(prog *Program) ([]Diagnostic, error) {
			return runCanonical(prog, cfg)
		},
	}
}

// watchedField is one struct field under the contract.
type watchedField struct {
	owner string // type name
	field *types.Var
}

// runCanonical diffs the reachable spec fields against the reads in
// the canonical file plus the exclusion lists.
func runCanonical(prog *Program, cfg CanonicalConfig) ([]Diagnostic, error) {
	pkg := prog.Lookup(cfg.Package)
	if pkg == nil {
		return nil, fmt.Errorf("canonical: spec package %s not loaded", cfg.Package)
	}

	// Collect the watched structs: the roots plus every module struct
	// reachable through their fields, stopping at excluded types.
	watched := map[*types.Named]bool{}
	seen := map[*types.Named]bool{}
	usedTypeExcl := map[string]bool{}
	var collect func(t types.Type)
	collect = func(t types.Type) {
		switch t := t.(type) {
		case *types.Pointer:
			collect(t.Elem())
		case *types.Slice:
			collect(t.Elem())
		case *types.Array:
			collect(t.Elem())
		case *types.Map:
			collect(t.Key())
			collect(t.Elem())
		case *types.Named:
			obj := t.Obj()
			if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), prog.ModulePath) {
				return
			}
			if _, excluded := cfg.ExcludeTypes[obj.Name()]; excluded {
				usedTypeExcl[obj.Name()] = true
				return
			}
			if seen[t] {
				return
			}
			seen[t] = true
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				// A named slice/map/array (e.g. lab.Workload) is a
				// window onto its element structs — recurse through the
				// underlying type so they fall under the contract too.
				collect(t.Underlying())
				return
			}
			watched[t] = true
			for i := 0; i < st.NumFields(); i++ {
				collect(st.Field(i).Type())
			}
		}
	}
	for _, root := range cfg.Roots {
		obj := pkg.Types.Scope().Lookup(root)
		if obj == nil {
			return nil, fmt.Errorf("canonical: root struct %s not found in %s", root, cfg.Package)
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			return nil, fmt.Errorf("canonical: root %s is not a named type", root)
		}
		collect(named)
	}

	// Index the watched fields by their type-checker object.
	fields := map[types.Object]watchedField{}
	for named := range watched {
		st := named.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			fields[f] = watchedField{owner: named.Obj().Name(), field: f}
		}
	}

	// Collect every watched-field read in the canonical file. The
	// encoders live in the spec package, so its Info covers them.
	var canonicalFile *File
	for _, f := range pkg.Files {
		if pathBase(f.Name) == cfg.File {
			canonicalFile = f
			break
		}
	}
	if canonicalFile == nil {
		return nil, fmt.Errorf("canonical: file %s not found in %s", cfg.File, cfg.Package)
	}
	read := map[types.Object]bool{}
	ast.Inspect(canonicalFile.AST, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if obj := pkg.Info.Uses[sel.Sel]; obj != nil {
			if _, watched := fields[obj]; watched {
				read[obj] = true
			}
		}
		return true
	})

	// Diff: every watched field must be read or excluded, exclusions
	// must be live, and a field must not be both.
	var diags []Diagnostic
	usedFieldExcl := map[string]bool{}
	var ordered []types.Object
	for obj := range fields {
		ordered = append(ordered, obj)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Pos() < ordered[j].Pos() })
	for _, obj := range ordered {
		wf := fields[obj]
		key := wf.owner + "." + obj.Name()
		_, excluded := cfg.ExcludeFields[key]
		if excluded {
			usedFieldExcl[key] = true
		}
		switch {
		case !read[obj] && !excluded:
			diags = append(diags, Diagnostic{
				Pos:   prog.Position(obj.Pos()),
				Check: CheckCanonical,
				Message: fmt.Sprintf("field %s is neither serialized in %s nor in the canonical exclusion list — a new result-affecting field must join Canonical() or the cached state it can change goes stale",
					key, cfg.File),
			})
		case read[obj] && excluded:
			diags = append(diags, Diagnostic{
				Pos:     prog.Position(obj.Pos()),
				Check:   CheckCanonical,
				Message: fmt.Sprintf("field %s is serialized in %s but also excluded — remove the stale exclusion entry", key, cfg.File),
			})
		}
	}
	var exclKeys []string
	for key := range cfg.ExcludeFields {
		exclKeys = append(exclKeys, key)
	}
	sort.Strings(exclKeys)
	for _, key := range exclKeys {
		if !usedFieldExcl[key] {
			diags = append(diags, Diagnostic{
				Pos:     prog.Position(canonicalFile.AST.Pos()),
				Check:   CheckCanonical,
				Message: fmt.Sprintf("exclusion entry %q matches no reachable spec field — remove or rename it", key),
			})
		}
	}
	var typeKeys []string
	for key := range cfg.ExcludeTypes {
		typeKeys = append(typeKeys, key)
	}
	sort.Strings(typeKeys)
	for _, key := range typeKeys {
		if !usedTypeExcl[key] {
			diags = append(diags, Diagnostic{
				Pos:     prog.Position(canonicalFile.AST.Pos()),
				Check:   CheckCanonical,
				Message: fmt.Sprintf("type-exclusion entry %q matches no reachable spec struct — remove or rename it", key),
			})
		}
	}
	return diags, nil
}
