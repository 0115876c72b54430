// Package driver loads Go packages from source and runs the project's
// static-analysis suite over them.
//
// It fills the role golang.org/x/tools/go/packages + multichecker would play,
// using only the standard library: repo packages (and test fixtures) are
// parsed and type-checked from source, while imports that resolve to neither
// the module nor the load root fall through to go/importer's source importer,
// which reads GOROOT. Nothing here shells out to the go tool, so the driver
// works in the offline build environment the repo targets.
//
// The driver also owns the suppression mechanism shared by every analyzer:
// a "//lint:allow <analyzer> <reason>" comment on the flagged line, or on the
// line directly above it, silences that analyzer's diagnostics there. The
// reason is mandatory — an allow without one is itself reported — and, when
// ReportUnusedAllows is set (the odlint default), an allow that suppresses
// nothing is reported too, so stale escape hatches cannot accumulate.
package driver

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analyzers/analysis"
)

// Options configures one analysis run.
type Options struct {
	// Dir is the load root: the module root for real runs, or a fixture
	// source root (testdata/src) for analysistest runs.
	Dir string
	// Patterns name what to analyze, relative to Dir: "./..." for the whole
	// tree, "./internal/lattice" or "fixturepkg" for single packages, and
	// "fixturepkg/..." for fixture subtrees.
	Patterns []string
	// Tests includes _test.go files: in-package test files are type-checked
	// together with the package, external foo_test packages become analysis
	// units of their own. Individual analyzers may still skip test files for
	// production-only invariants (Pass.IsTestFile).
	Tests bool
	// ReportUnusedAllows reports lint:allow comments that suppressed nothing.
	ReportUnusedAllows bool
}

// Diagnostic is a resolved, printable finding.
type Diagnostic struct {
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Analyzer, d.Message)
}

// Run loads every package matched by opts and applies each analyzer to each
// package, then runs analyzer Finish hooks and resolves suppressions.
func Run(opts Options, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	ld := newLoader(opts.Dir)
	dirs, err := expandPatterns(opts.Dir, opts.Patterns)
	if err != nil {
		return nil, err
	}
	var units []*unit
	for _, dir := range dirs {
		us, err := ld.analysisUnits(dir, opts.Tests)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}

	var raw []analysis.Diagnostic
	report := func(d analysis.Diagnostic) { raw = append(raw, d) }
	for _, a := range analyzers {
		for _, u := range units {
			pass := analysis.NewPass(a, ld.fset, u.files, u.pkg, u.info, report)
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, u.path, err)
			}
		}
		if a.Finish != nil {
			if err := a.Finish(report); err != nil {
				return nil, fmt.Errorf("%s (finish): %w", a.Name, err)
			}
		}
	}

	var allFiles []*ast.File
	for _, u := range units {
		allFiles = append(allFiles, u.files...)
	}
	return resolve(ld.fset, allFiles, raw, opts.ReportUnusedAllows), nil
}

// resolve turns raw analyzer diagnostics into the final finding list: it
// applies lint:allow suppressions found in files, reports malformed (and,
// optionally, unused) allows, dedups, and sorts by position.
func resolve(fset *token.FileSet, files []*ast.File, raw []analysis.Diagnostic, reportUnusedAllows bool) []Diagnostic {
	allows := collectAllows(fset, files)
	var out []Diagnostic
	seen := make(map[string]bool)
	for _, d := range raw {
		rd := Diagnostic{Position: fset.Position(d.Pos), Analyzer: d.Analyzer, Message: d.Message}
		if allows.suppresses(rd) {
			continue
		}
		if key := rd.String(); !seen[key] {
			seen[key] = true
			out = append(out, rd)
		}
	}
	out = append(out, allows.problems(reportUnusedAllows)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// AllowDirective is the comment prefix of the suppression escape hatch.
const AllowDirective = "lint:allow"

type allowEntry struct {
	file     string
	line     int
	analyzer string
	pos      token.Position
	used     bool
}

type allowSet struct {
	entries   []*allowEntry
	malformed []Diagnostic
}

// collectAllows scans every analyzed file for lint:allow comments.
func collectAllows(fset *token.FileSet, files []*ast.File) *allowSet {
	s := &allowSet{}
	seenFile := make(map[string]bool) // test variants share prod files; scan once
	for _, f := range files {
		name := fset.Position(f.Package).Filename
		if seenFile[name] {
			continue
		}
		seenFile[name] = true
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, AllowDirective) {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, AllowDirective))
				if len(fields) < 2 {
					s.malformed = append(s.malformed, Diagnostic{
						Position: pos,
						Analyzer: "lint",
						Message:  "malformed lint:allow: need \"//lint:allow <analyzer> <reason>\" — the reason is not optional",
					})
					continue
				}
				s.entries = append(s.entries, &allowEntry{
					file: pos.Filename, line: pos.Line, analyzer: fields[0], pos: pos,
				})
			}
		}
	}
	return s
}

// suppresses reports whether d is covered by an allow on its own line or the
// line directly above, and marks that allow used.
func (s *allowSet) suppresses(d Diagnostic) bool {
	for _, e := range s.entries {
		if e.file != d.Position.Filename || e.analyzer != d.Analyzer {
			continue
		}
		if e.line == d.Position.Line || e.line == d.Position.Line-1 {
			e.used = true
			return true
		}
	}
	return false
}

func (s *allowSet) problems(reportUnused bool) []Diagnostic {
	out := append([]Diagnostic(nil), s.malformed...)
	if reportUnused {
		for _, e := range s.entries {
			if !e.used {
				out = append(out, Diagnostic{
					Position: e.pos,
					Analyzer: "lint",
					Message:  fmt.Sprintf("unused lint:allow for %q: nothing is suppressed here anymore; delete the comment", e.analyzer),
				})
			}
		}
	}
	return out
}

// expandPatterns resolves patterns to package directories under root.
func expandPatterns(root string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		recursive := false
		if pat == "..." {
			pat, recursive = "", true
		} else if strings.HasSuffix(pat, "/...") {
			pat, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		base := filepath.Join(root, filepath.FromSlash(pat))
		if !recursive {
			if !hasGoFiles(base) {
				return nil, fmt.Errorf("no Go files in %s", base)
			}
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// unit is one analysis unit: a package (possibly test-augmented) or an
// external test package.
type unit struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type loader struct {
	root       string
	modulePath string
	fset       *token.FileSet
	std        types.Importer
	deps       map[string]*unit // prod-only variants, keyed by import path
}

func newLoader(root string) *loader {
	// The source importer consults build.Default; with cgo enabled it would
	// try to preprocess cgo files in packages like net. The pure-Go variants
	// type-check fine and are all the analyzers need.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &loader{
		root:       root,
		modulePath: readModulePath(filepath.Join(root, "go.mod")),
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		deps:       make(map[string]*unit),
	}
}

func readModulePath(gomod string) string {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// dirFor maps an import path to a directory under the load root, or "" if
// the path is not local (and should fall through to the GOROOT importer).
func (ld *loader) dirFor(path string) string {
	if ld.modulePath != "" {
		if path == ld.modulePath {
			return ld.root
		}
		if rest, ok := strings.CutPrefix(path, ld.modulePath+"/"); ok {
			return filepath.Join(ld.root, filepath.FromSlash(rest))
		}
		return ""
	}
	// Fixture mode: any path that exists under the root is local.
	dir := filepath.Join(ld.root, filepath.FromSlash(path))
	if hasGoFiles(dir) {
		return dir
	}
	return ""
}

// pathFor maps a directory under the load root to its import path.
func (ld *loader) pathFor(dir string) (string, error) {
	rel, err := filepath.Rel(ld.root, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	if ld.modulePath != "" {
		if rel == "." {
			return ld.modulePath, nil
		}
		return ld.modulePath + "/" + rel, nil
	}
	return rel, nil
}

// Import implements types.Importer over local packages with a GOROOT source
// fallback, letting the type checker pull in any dependency it meets.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir := ld.dirFor(path); dir != "" {
		u, err := ld.loadDep(path, dir)
		if err != nil {
			return nil, err
		}
		return u.pkg, nil
	}
	return ld.std.Import(path)
}

// loadDep loads a local package (production files only) for use as an import.
func (ld *loader) loadDep(path, dir string) (*unit, error) {
	if u, ok := ld.deps[path]; ok {
		return u, nil
	}
	prod, _, _, err := ld.parseDir(dir)
	if err != nil {
		return nil, err
	}
	u, err := ld.check(path, prod, ld)
	if err != nil {
		return nil, err
	}
	ld.deps[path] = u
	return u, nil
}

// analysisUnits loads the package in dir for analysis: the production
// package (test-augmented when tests is set and in-package test files
// exist), plus the external test package when one exists.
func (ld *loader) analysisUnits(dir string, tests bool) ([]*unit, error) {
	path, err := ld.pathFor(dir)
	if err != nil {
		return nil, err
	}
	prod, inTest, extTest, err := ld.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(prod) == 0 && len(inTest) == 0 && len(extTest) == 0 {
		return nil, nil
	}
	var units []*unit
	base := prod
	if tests {
		base = append(append([]*ast.File(nil), prod...), inTest...)
	}
	if len(base) > 0 {
		u, err := ld.check(path, base, ld)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
		if tests && len(extTest) > 0 {
			tu, err := ld.check(path+"_test", extTest, ld.testVariantImporter(path, u.pkg))
			if err != nil {
				return nil, err
			}
			units = append(units, tu)
		}
	}
	return units, nil
}

// testVariantImporter resolves the imports of the external test package of
// path. That package must see variant, the test-augmented variant of path
// (the export_test.go convention), and so must every local package it
// imports that depends on path: as the go tool does for foo_test, each such
// package is re-checked against the variant. Otherwise a test passing a
// value from such a package (a generator returning *foo.T, say) to foo would
// meet two distinct foo packages.
func (ld *loader) testVariantImporter(path string, variant *types.Package) types.Importer {
	variants := map[string]*types.Package{path: variant}
	var imp importerFunc
	imp = func(p string) (*types.Package, error) {
		if pkg, ok := variants[p]; ok {
			return pkg, nil
		}
		dir := ld.dirFor(p)
		if dir == "" {
			return ld.Import(p)
		}
		dep, err := ld.loadDep(p, dir)
		if err != nil {
			return nil, err
		}
		pkg := dep.pkg
		if dependsOn(pkg, path, map[*types.Package]bool{}) {
			v, err := ld.check(p, dep.files, imp)
			if err != nil {
				return nil, err
			}
			pkg = v.pkg
		}
		variants[p] = pkg
		return pkg, nil
	}
	return imp
}

// dependsOn reports whether pkg imports path directly or transitively.
func dependsOn(pkg *types.Package, path string, seen map[*types.Package]bool) bool {
	for _, dep := range pkg.Imports() {
		if dep.Path() == path {
			return true
		}
		if !seen[dep] {
			seen[dep] = true
			if dependsOn(dep, path, seen) {
				return true
			}
		}
	}
	return false
}

// parseDir parses every .go file in dir into production files, in-package
// test files and external (foo_test) test files.
func (ld *loader) parseDir(dir string) (prod, inTest, extTest []*ast.File, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			prod = append(prod, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			extTest = append(extTest, f)
		default:
			inTest = append(inTest, f)
		}
	}
	return prod, inTest, extTest, nil
}

// check type-checks files as package path using imp for imports.
func (ld *loader) check(path string, files []*ast.File, imp types.Importer) (*unit, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := &types.Config{Importer: imp}
	pkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	return &unit{path: path, files: files, pkg: pkg, info: info}, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
