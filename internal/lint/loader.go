package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// Checker owns the shared state of a lint run: one FileSet covering
// every parsed file, and one importer that reads the standard
// library's compiled export data from the files `go list -export`
// reports. Both outlive a module load, so tests that lint many
// fixtures read each standard-library package once.
type Checker struct {
	fset   *token.FileSet
	std    types.Importer
	export map[string]string // import path -> export data file ("" if none)
}

// NewChecker builds a checker with a fresh FileSet.
func NewChecker() *Checker {
	c := &Checker{fset: token.NewFileSet(), export: make(map[string]string)}
	c.std = importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		if file := c.export[path]; file != "" {
			return os.Open(file)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	return c
}

// check type-checks files as import path path, resolving imports with
// imp, and returns the type info the analyzers rely on.
func (c *Checker) check(path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg, err := (&types.Config{Importer: imp}).Check(path, c.fset, files, info)
	return pkg, info, err
}

// listedPkg is the part of a `go list -json` record the loader reads.
// The go command decides which files belong to a package, build
// constraints and file-name GOOS/GOARCH suffixes included.
type listedPkg struct {
	ImportPath, Dir, Export            string
	Match                              []string
	GoFiles, TestGoFiles, XTestGoFiles []string
	Imports, TestImports, XTestImports []string
	Error                              *struct{ Err string }
}

// goCmd runs the go command in dir with env added to the environment
// and returns its standard output. GOPROXY=off keeps linting from
// downloading modules.
func goCmd(dir string, env []string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(append(os.Environ(), "GOPROXY=off"), env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return out, nil
}

// goList runs `go list -e` with args in dir and fails on a package
// the go command could not load.
func goList(dir string, env []string, args ...string) ([]*listedPkg, error) {
	out, err := goCmd(dir, env, append([]string{"list", "-e",
		"-json=ImportPath,Dir,Export,Match,GoFiles,TestGoFiles,XTestGoFiles,Imports,TestImports,XTestImports,Error"}, args...)...)
	if err != nil {
		return nil, err
	}
	var pkgs []*listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("lint: go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, strings.TrimSpace(p.Error.Err))
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// list lists the packages patterns match in dir. Every package they
// import from outside the listing — the standard library — is then
// listed with -export in one more call, unless an earlier load already
// recorded its export data file.
func (c *Checker) list(dir string, env []string, patterns ...string) ([]*listedPkg, error) {
	pkgs, err := goList(dir, env, patterns...)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		known[p.ImportPath] = true
	}
	args := []string{"-export"}
	for _, p := range pkgs {
		for _, imp := range slices.Concat(p.Imports, p.TestImports, p.XTestImports) {
			if _, ok := c.export[imp]; !ok && !known[imp] {
				known[imp] = true
				args = append(args, imp)
			}
		}
	}
	if len(args) == 1 {
		return pkgs, nil
	}
	deps, err := goList(dir, env, args...)
	if err != nil {
		return nil, err
	}
	for _, p := range deps {
		c.export[p.ImportPath] = p.Export
	}
	return pkgs, nil
}

// pkgSrc holds one package's parsed files, split into the non-test
// files, in-package test files and external (package foo_test) test
// files.
type pkgSrc struct {
	nonTest, inTest, extTest []*ast.File
}

// parse parses the files go list reports for p, found in dir.
func (c *Checker) parse(dir string, p *listedPkg) (*pkgSrc, error) {
	var src pkgSrc
	names := [][]string{p.GoFiles, p.TestGoFiles, p.XTestGoFiles}
	for i, dst := range []*[]*ast.File{&src.nonTest, &src.inTest, &src.extTest} {
		for _, name := range names[i] {
			f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			*dst = append(*dst, f)
		}
	}
	return &src, nil
}

// CheckDir type-checks the files of a single directory as import path
// asPath — imports resolve against the standard library only — and
// runs the analyzers over all of them (test files included). It is the
// entry point the fixture tests use.
func (c *Checker) CheckDir(dir, asPath string, analyzers []*Analyzer) ([]Finding, error) {
	pkgs, err := c.list(dir, []string{"GOWORK=off"}, ".")
	if err != nil {
		return nil, err
	}
	src, err := c.parse(dir, pkgs[0])
	if err != nil {
		return nil, err
	}
	files := slices.Concat(src.nonTest, src.inTest, src.extTest)
	pkg, info, err := c.check(asPath, files, c.std)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", dir, err)
	}
	fs := runUnit(&unit{path: asPath, fset: c.fset, files: files, pkg: pkg, info: info}, analyzers, nil)
	sortFindings(fs)
	return fs, nil
}

// Module is one lint run's view of a module tree: the packages of the
// module containing the start directory and of every module nested
// under it, as the go command lists them. Its packages are
// type-checked from source on demand.
type Module struct {
	c       *Checker
	pkgs    map[string]*listedPkg // module packages by import path
	targets []*listedPkg          // the packages the patterns match

	facing     map[string]*types.Package // import-facing (non-test) packages
	facingInfo map[string]*types.Info    // their retained type info, for the call graph
	srcs       map[string]*pkgSrc        // parse cache, keyed by import path
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// LoadModule lists the module tree that holds start and picks out the
// packages patterns match. "./..." (or "...") means every package of
// the tree, from any directory in it; any other pattern names a
// directory, optionally ending in "/...", relative to start.
func LoadModule(c *Checker, start string, patterns []string) (*Module, error) {
	tmp, err := os.MkdirTemp("", "odblint")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	env := []string{"GOWORK=" + filepath.Join(tmp, "go.work")}
	mods, err := workspace(start, env)
	if err != nil {
		return nil, err
	}
	var args []string
	whole, wanted := false, make(map[string]bool)
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			whole = true
			continue
		case !filepath.IsAbs(pat) && !strings.HasPrefix(pat, "."):
			pat = "./" + pat // a directory, as the go command spells one
		}
		wanted[pat] = true
		args = append(args, pat)
	}
	for _, dir := range mods {
		args = append(args, filepath.Join(dir, "..."))
	}
	pkgs, err := c.list(start, env, args...)
	if err != nil {
		return nil, err
	}
	m := &Module{
		c:          c,
		pkgs:       make(map[string]*listedPkg),
		facing:     make(map[string]*types.Package),
		facingInfo: make(map[string]*types.Info),
		srcs:       make(map[string]*pkgSrc),
	}
	for _, p := range pkgs {
		m.pkgs[p.ImportPath] = p
		if whole || slices.ContainsFunc(p.Match, func(pat string) bool { return wanted[pat] }) {
			m.targets = append(m.targets, p)
		}
	}
	if len(m.targets) == 0 {
		return nil, fmt.Errorf("lint: no packages match %s", strings.Join(patterns, " "))
	}
	return m, nil
}

// workspace writes the go.work that env names. It uses the module
// holding start and every module `go work use -r` finds under it,
// except those in directories the go command's ./... skips: testdata,
// vendor, and names that start with "." or "_". It returns the module
// directories.
func workspace(start string, env []string) ([]string, error) {
	out, err := goCmd(start, []string{"GOWORK=off"}, "list", "-m", "-f", "{{.Dir}}")
	if err != nil {
		return nil, err
	}
	root := strings.TrimSpace(string(out))
	for _, args := range [][]string{{"work", "init"}, {"work", "use", "-r", root}} {
		if _, err := goCmd(start, env, args...); err != nil {
			return nil, err
		}
	}
	if out, err = goCmd(start, env, "work", "edit", "-json"); err != nil {
		return nil, err
	}
	var work struct{ Use []struct{ DiskPath string } }
	if err := json.Unmarshal(out, &work); err != nil {
		return nil, fmt.Errorf("lint: go work edit output: %w", err)
	}
	var mods []string
	drop := []string{"work", "edit"}
	for _, u := range work.Use {
		rel, _ := filepath.Rel(root, u.DiskPath)
		if slices.ContainsFunc(strings.Split(filepath.ToSlash(rel), "/"), func(elem string) bool {
			return elem == "testdata" || elem == "vendor" || elem != "." && strings.IndexAny(elem, "._") == 0
		}) {
			drop = append(drop, "-dropuse="+u.DiskPath)
		} else {
			mods = append(mods, u.DiskPath)
		}
	}
	if len(drop) > 2 {
		if _, err := goCmd(start, env, drop...); err != nil {
			return nil, err
		}
	}
	return mods, nil
}

// sources returns the package's parsed files, parsing on first use.
func (m *Module) sources(p *listedPkg) (*pkgSrc, error) {
	if s, ok := m.srcs[p.ImportPath]; ok {
		return s, nil
	}
	s, err := m.c.parse(p.Dir, p)
	if err != nil {
		return nil, err
	}
	m.srcs[p.ImportPath] = s
	return s, nil
}

// importPkg resolves one import for the type-checker: module packages
// type-check recursively from source (non-test files only, as the
// compiler would export them); everything else comes from its export
// data. The type info of module packages is
// retained for the call-graph layer.
func (m *Module) importPkg(path string) (*types.Package, error) {
	p, ok := m.pkgs[path]
	if !ok {
		return m.c.std.Import(path)
	}
	if pkg, ok := m.facing[path]; ok {
		return pkg, nil
	}
	src, err := m.sources(p)
	if err != nil {
		return nil, err
	}
	if len(src.nonTest) == 0 {
		return nil, fmt.Errorf("package %s has no non-test Go files", path)
	}
	pkg, info, err := m.c.check(path, src.nonTest, importerFunc(m.importPkg))
	if err != nil {
		return nil, err
	}
	m.facing[path], m.facingInfo[path] = pkg, info
	return pkg, nil
}

// LoadUnits parses and type-checks package p as its analysis units:
// the package with its in-package test files, plus — when one exists
// — the external _test package.
func (m *Module) LoadUnits(p *listedPkg) ([]*unit, error) {
	src, err := m.sources(p)
	if err != nil {
		return nil, err
	}
	var units []*unit
	for _, u := range []struct {
		path  string
		files []*ast.File
	}{{p.ImportPath, slices.Concat(src.nonTest, src.inTest)}, {p.ImportPath + "_test", src.extTest}} {
		if len(u.files) == 0 {
			continue
		}
		pkg, info, err := m.c.check(u.path, u.files, importerFunc(m.importPkg))
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", u.path, err)
		}
		units = append(units, &unit{path: p.ImportPath, fset: m.c.fset, files: u.files, pkg: pkg, info: info})
	}
	return units, nil
}
