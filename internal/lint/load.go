package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// File is one parsed source file with its suppression annotations.
type File struct {
	// Name is the file path relative to the module root.
	Name string
	// AST is the parsed file (comments included).
	AST *ast.File
	// Annotations holds the file's //lint: markers, keyed by line.
	Annotations map[int][]Annotation
}

// Package is one loaded, type-checked module package.
type Package struct {
	// Path is the package import path (module path + directory).
	Path string
	// Dir is the package directory relative to the module root.
	Dir string
	// Files holds the package's non-test sources, sorted by name.
	Files []*File
	// Types is the type-checked package.
	Types *types.Package
	// Info is the type-checker's expression/object tables.
	Info *types.Info
}

// Program is a loaded module: every package, type-checked against one
// shared file set, in deterministic (import-path) order.
type Program struct {
	// Root is the absolute module root directory.
	Root string
	// Fset positions every loaded file.
	Fset *token.FileSet
	// Packages holds all module packages, sorted by import path.
	Packages []*Package
}

// Position renders pos relative to the module root (stable output
// regardless of the invocation directory).
func (p *Program) Position(pos token.Pos) token.Position {
	position := p.Fset.Position(pos)
	if rel, err := filepath.Rel(p.Root, position.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		position.Filename = rel
	}
	return position
}

// FindModuleRoot walks up from dir to the directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module path from root/go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", root)
}

// skipDir names directories the loader never descends into.
func skipDir(name string) bool {
	return name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")
}

// Load parses and type-checks every non-test package under the module
// rooted at dir (or the nearest go.mod above it). It uses only the
// standard library: module packages are type-checked from source in
// dependency order, standard-library imports resolve through the
// source importer.
func Load(dir string) (*Program, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	prog := &Program{Root: root, Fset: token.NewFileSet()}

	// Collect every directory holding at least one non-test .go file.
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.Sort(dirs)
	dirs = slices.Compact(dirs)

	// Parse each directory into a pre-typecheck package shell.
	type shell struct {
		pkg     *Package
		imports []string
	}
	shells := map[string]*shell{}
	for _, d := range dirs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			return nil, err
		}
		path := mod
		if rel != "." {
			path = mod + "/" + filepath.ToSlash(rel)
		}
		pkg := &Package{Path: path, Dir: rel}
		sh := &shell{pkg: pkg}
		entries, err := os.ReadDir(d)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			full := filepath.Join(d, e.Name())
			f, err := parser.ParseFile(prog.Fset, full, nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			name := filepath.ToSlash(filepath.Join(rel, e.Name()))
			if rel == "." {
				name = e.Name()
			}
			pkg.Files = append(pkg.Files, &File{Name: name, AST: f, Annotations: fileAnnotations(prog.Fset, f)})
			for _, imp := range f.Imports {
				sh.imports = append(sh.imports, strings.Trim(imp.Path.Value, `"`))
			}
		}
		if len(pkg.Files) > 0 {
			shells[path] = sh
		}
	}

	// Type-check in dependency order: module imports first.
	src := importer.ForCompiler(prog.Fset, "source", nil)
	checked := map[string]*types.Package{}
	imp := &programImporter{src: src, checked: checked}
	var order []string
	for path := range shells {
		order = append(order, path)
	}
	slices.Sort(order)
	done := map[string]bool{}
	var visit func(path string, stack []string) error
	visit = func(path string, stack []string) error {
		if done[path] {
			return nil
		}
		for _, s := range stack {
			if s == path {
				return fmt.Errorf("lint: import cycle through %s", path)
			}
		}
		sh := shells[path]
		for _, dep := range sh.imports {
			if _, ok := shells[dep]; ok {
				if err := visit(dep, append(stack, path)); err != nil {
					return err
				}
			}
		}
		done[path] = true
		pkg := sh.pkg
		pkg.Info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{Importer: imp}
		files := make([]*ast.File, len(pkg.Files))
		for i, f := range pkg.Files {
			files[i] = f.AST
		}
		tpkg, err := conf.Check(path, prog.Fset, files, pkg.Info)
		if err != nil {
			return fmt.Errorf("lint: type-checking %s: %w", path, err)
		}
		pkg.Types = tpkg
		checked[path] = tpkg
		prog.Packages = append(prog.Packages, pkg)
		return nil
	}
	for _, path := range order {
		if err := visit(path, nil); err != nil {
			return nil, err
		}
	}
	slices.SortFunc(prog.Packages, func(a, b *Package) int { return strings.Compare(a.Path, b.Path) })
	return prog, nil
}

// programImporter resolves module packages from the already-checked
// set and everything else (the standard library) from source.
type programImporter struct {
	src     types.Importer
	checked map[string]*types.Package
}

// Import implements types.Importer.
func (i *programImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := i.checked[path]; ok {
		return pkg, nil
	}
	return i.src.Import(path)
}
