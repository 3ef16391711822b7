package lint

import (
	"fmt"
	"go/ast"
)

// docScope lists the evaluation-layer package directories whose
// exported API must be documented — the same set the former
// TestExportedSymbolsDocumented covered (this analyzer is its
// migration into the one lint engine).
var docScope = []string{
	"internal/lab",
	"internal/policy",
	"internal/figures",
	"internal/experiment",
	"internal/scenario",
	"internal/artifact",
	"internal/lint",
	"internal/benchfmt",
	"internal/profiling",
	"internal/labd",
	"cmd/labd",
	"cmd/labctl",
}

// DocAnalyzer checks that every exported top-level type, function,
// method, constant, variable and struct field in the evaluation-layer
// packages carries a doc comment — the container-local stand-in for a
// `revive exported` step (no third-party linters in the image).
func DocAnalyzer() *Analyzer {
	return &Analyzer{Run: runDoc}
}

// runDoc scans one package for undocumented exported symbols.
func runDoc(prog *Program, pkg *Package) []Diagnostic {
	inScope := false
	for _, p := range docScope {
		if pkg.Dir == p {
			inScope = true
			break
		}
	}
	if !inScope {
		return nil
	}
	var diags []Diagnostic
	report := func(n ast.Node, what string) {
		diags = append(diags, Diagnostic{
			Pos:     prog.Position(n.Pos()),
			Check:   CheckDoc,
			Message: fmt.Sprintf("exported %s has no doc comment", what),
		})
	}
	for _, f := range pkg.Files {
		for _, decl := range f.AST.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					report(d, "func "+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(s, "type "+s.Name.Name)
						}
						if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
							for _, field := range st.Fields.List {
								for _, name := range field.Names {
									if name.IsExported() && field.Doc == nil && field.Comment == nil {
										report(name, "field "+s.Name.Name+"."+name.Name)
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
								report(name, "value "+name.Name)
							}
						}
					}
				}
			}
		}
	}
	return diags
}
