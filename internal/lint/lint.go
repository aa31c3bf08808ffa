package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Rule names, used in findings and ignore directives.
const (
	RuleWallClock  = "wall-clock"
	RuleMathRand   = "math-rand"
	RuleMapRange   = "map-range"
	RuleGoroutine  = "goroutine"
	RuleRandGlobal = "rand-global"

	// Concurrency-safety rule (conc.go).
	RuleLockBlocking = "lock-blocking"

	// Deadline-propagation rules (ctx.go).
	RuleCtxBackground = "ctx-background"
	RuleCtxPropagate  = "ctx-propagate"

	// Metrics-registration exhaustiveness (metrics.go).
	RuleMetricsReg = "metrics-registered"

	// A //vltlint:ignore directive that suppressed nothing.
	RuleUnusedIgnore = "unused-ignore"
)

// contractPkgs are the simulation-core import paths subject to the
// wall-clock, math-rand and map-range rules. The goroutine rule applies
// to every package except internal/runner.
var contractPkgs = map[string]bool{
	"vlt/internal/core":   true,
	"vlt/internal/scalar": true,
	"vlt/internal/lane":   true,
	"vlt/internal/vcl":    true,
	"vlt/internal/mem":    true,
	"vlt/internal/vm":     true,
}

// goroutinePkg is the only package allowed to spawn goroutines.
const goroutinePkg = "vlt/internal/runner"

// ctxPkgs are the serving-layer import paths subject to the
// deadline-propagation rules: every function on a request path receives
// a context and must thread it into the blocking calls it makes.
var ctxPkgs = map[string]bool{
	"vlt/internal/serve":     true,
	"vlt/internal/fleet":     true,
	"vlt/internal/vltclient": true,
}

// statsPkg is the metrics registry itself, exempt from the
// metrics-registered rule (its uint64 fields are the implementation,
// not counters to be exported through it).
const statsPkg = "vlt/internal/stats"

// seededRandPkgs are the non-workload packages granted math/rand: the
// design-space search driver (it draws nothing, but any draw there must
// replay), the chaos proxy (reproducible fault schedules), and the
// daemon client (retry jitter). The grant is narrow — the rand-global
// rule bans every package-level rand function there (rand.Intn,
// rand.Perm, rand.Shuffle, ...), because those hit the process-global,
// auto-seeded source and would make results irreproducible. Only
// constructing a seeded source (rand.New, rand.NewSource) is allowed.
var seededRandPkgs = map[string]bool{
	"vlt/internal/search":    true,
	"vlt/internal/netfault":  true,
	"vlt/internal/vltclient": true,
}

// randCtors are the math/rand selectors permitted in seededRandPkgs:
// source construction only, never draws from the global source.
var randCtors = map[string]bool{
	"New": true, "NewSource": true,
}

// randTypes are math/rand type names: naming a type (a *rand.Rand
// struct field, a rand.Source parameter) is a declaration, not a draw.
// Kept as an explicit set because the lenient typechecker stubs the
// stdlib and cannot resolve these selectors to types.Object identities.
var randTypes = map[string]bool{
	"Rand": true, "Source": true, "Source64": true, "Zipf": true,
}

// wallClockFuncs are the time-package functions that read the wall
// clock or schedule against it.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Tick": true,
	"After": true, "AfterFunc": true, "NewTicker": true,
	"NewTimer": true, "Sleep": true,
}

// Finding is one contract violation.
type Finding struct {
	File string `json:"file"` // path relative to the module root
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Msg)
}

// Run lints the packages selected by patterns under the module root.
// Patterns are package directories relative to root ("./internal/core")
// or the recursive form "./...". Test files are exempt.
func Run(root string, patterns []string) ([]Finding, error) {
	dirs, err := expand(root, patterns)
	if err != nil {
		return nil, err
	}
	l := &linter{
		root: root,
		fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{},
	}
	var findings []Finding
	for _, dir := range dirs {
		fs, err := l.lintDir(dir)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	return findings, nil
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
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
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// expand resolves pattern arguments to package directories (relative to
// root) that contain non-test Go files.
func expand(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(rel string) {
		rel = filepath.ToSlash(filepath.Clean(rel))
		if !seen[rel] {
			seen[rel] = true
			dirs = append(dirs, rel)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				if ok, err := hasGoFiles(path); err != nil {
					return err
				} else if ok {
					rel, err := filepath.Rel(root, path)
					if err != nil {
						return err
					}
					add(rel)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		default:
			rel := strings.TrimPrefix(pat, "./")
			if rel == "" || rel == "." {
				rel = "."
			}
			if ok, err := hasGoFiles(filepath.Join(root, rel)); err != nil {
				return nil, err
			} else if !ok {
				return nil, fmt.Errorf("lint: no Go files in %s", pat)
			}
			add(rel)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if goSource(e) {
			return true, nil
		}
	}
	return false, nil
}

func goSource(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// linter carries the shared parse/typecheck state of one Run.
type linter struct {
	root string
	fset *token.FileSet
	pkgs map[string]*types.Package // memoized by import path
}

// importPath maps a root-relative package directory to its import path
// in module "vlt".
func (l *linter) importPath(rel string) string {
	if rel == "." {
		return "vlt"
	}
	return "vlt/" + filepath.ToSlash(rel)
}

// lintDir parses, typechecks and checks one package directory. Per-file
// rules run first, then the package-wide passes (lock-blocking,
// deadline propagation, metrics registration) that need every file's
// declarations at once, then the unused-ignore sweep over whatever
// directives no rule consumed.
func (l *linter) lintDir(rel string) ([]Finding, error) {
	files, err := l.parseDir(rel)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, nil
	}
	path := l.importPath(rel)
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	l.typecheck(path, files, info)

	c := &checker{
		linter:   l,
		pkg:      path,
		contract: contractPkgs[path],
		search:   seededRandPkgs[path],
		info:     info,
		files:    files,
		ignores:  map[string]map[int][]*directive{},
	}
	for _, f := range files {
		c.collectIgnores(f)
	}
	for _, f := range files {
		c.checkFile(f)
	}
	c.checkConcurrency()
	if ctxPkgs[path] {
		c.checkCtx()
	}
	if path != statsPkg {
		c.checkMetrics()
	}
	c.checkUnusedIgnores()
	return c.findings, nil
}

// parseDir parses the non-test Go files of a package directory.
func (l *linter) parseDir(rel string) ([]*ast.File, error) {
	dir := filepath.Join(l.root, rel)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if !goSource(e) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// typecheck runs a lenient go/types pass: module-local imports are
// resolved recursively from source, everything else (stdlib) is stubbed
// as an empty package, and type errors are ignored. The pass only needs
// to resolve the types of in-module expressions (is this a map? which
// struct does this selector land on?) and the identity of imported
// package names (is this ident the "time" package?) — both survive the
// stubs.
func (l *linter) typecheck(path string, files []*ast.File, info *types.Info) *types.Package {
	cfg := types.Config{
		Importer: (*moduleImporter)(l),
		Error:    func(error) {}, // lenient: stubs make some errors inevitable
	}
	pkg, _ := cfg.Check(path, l.fset, files, info)
	return pkg
}

// moduleImporter resolves "vlt/..." imports from the module source and
// stubs every other path.
type moduleImporter linter

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	var rel string
	switch {
	case path == "vlt":
		rel = "."
	case strings.HasPrefix(path, "vlt/"):
		rel = strings.TrimPrefix(path, "vlt/")
	default:
		p := types.NewPackage(path, filepath.Base(path))
		p.MarkComplete()
		m.pkgs[path] = p
		return p, nil
	}
	// Break import cycles defensively (Go forbids them, but a broken
	// tree must not hang the linter).
	m.pkgs[path] = types.NewPackage(path, filepath.Base(path))
	files, err := (*linter)(m).parseDir(rel)
	if err != nil {
		return nil, err
	}
	pkg := (*linter)(m).typecheck(path, files, &types.Info{})
	if pkg != nil {
		m.pkgs[path] = pkg
	}
	return m.pkgs[path], nil
}

// directive is one "//vltlint:ignore <rule>" comment. It suppresses its
// rule on its own line and the line below, and records whether it ever
// matched a finding — a directive that suppresses nothing is itself a
// finding (unused-ignore), so stale suppressions cannot accumulate.
type directive struct {
	rule string
	file string // relative path, as findings report it
	line int
	col  int
	used bool
}

// checker applies the rules to one package's files.
type checker struct {
	*linter
	pkg      string
	contract bool
	search   bool // seededRandPkgs: math/rand allowed, global source banned
	info     *types.Info
	files    []*ast.File

	ignores  map[string]map[int][]*directive // relative file -> line -> directives
	findings []Finding
}

// relFile maps an absolute source path to the root-relative form used
// in findings.
func (c *checker) relFile(abs string) string {
	if rel, err := filepath.Rel(c.root, abs); err == nil {
		return filepath.ToSlash(rel)
	}
	return abs
}

// collectIgnores gathers the file's "//vltlint:ignore <rule>" comments.
// A directive suppresses the rule on its own line and the line below,
// so it works both trailing a statement and on the line above it.
func (c *checker) collectIgnores(f *ast.File) {
	for _, cg := range f.Comments {
		for _, cm := range cg.List {
			text := strings.TrimPrefix(cm.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, "vltlint:ignore") {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, "vltlint:ignore"))
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			p := c.fset.Position(cm.Pos())
			d := &directive{
				rule: fields[0],
				file: c.relFile(p.Filename),
				line: p.Line,
				col:  p.Column,
			}
			m := c.ignores[d.file]
			if m == nil {
				m = map[int][]*directive{}
				c.ignores[d.file] = m
			}
			m[d.line] = append(m[d.line], d)
			m[d.line+1] = append(m[d.line+1], d)
		}
	}
}

// emit reports one finding unless an ignore directive covers it; a
// matching directive is marked used either way. goroutine findings
// cannot be suppressed: a spawn belongs in internal/runner, so an ignore
// directive for that rule matches nothing and is itself unused-ignore.
func (c *checker) emit(pos token.Pos, rule, format string, args ...any) {
	p := c.fset.Position(pos)
	file := c.relFile(p.Filename)
	suppressed := false
	for _, d := range c.ignores[file][p.Line] {
		if d.rule == rule && rule != RuleGoroutine {
			d.used = true
			suppressed = true
		}
	}
	if suppressed {
		return
	}
	c.findings = append(c.findings, Finding{
		File: file, Line: p.Line, Col: p.Column,
		Rule: rule, Msg: fmt.Sprintf(format, args...),
	})
}

// checkUnusedIgnores flags every directive that suppressed nothing
// across all passes of this package. It runs last; unused-ignore
// findings cannot themselves be ignored (that would be a directive
// whose only job is to keep another stale directive alive).
func (c *checker) checkUnusedIgnores() {
	var unused []*directive
	seen := map[*directive]bool{}
	for _, byLine := range c.ignores {
		for _, ds := range byLine {
			for _, d := range ds {
				if !d.used && !seen[d] {
					seen[d] = true
					unused = append(unused, d)
				}
			}
		}
	}
	sort.Slice(unused, func(i, j int) bool {
		if unused[i].file != unused[j].file {
			return unused[i].file < unused[j].file
		}
		return unused[i].line < unused[j].line
	})
	for _, d := range unused {
		c.findings = append(c.findings, Finding{
			File: d.file, Line: d.line, Col: d.col, Rule: RuleUnusedIgnore,
			Msg: fmt.Sprintf("ignore directive for %q suppresses nothing; delete it", d.rule),
		})
	}
}

// checkFile applies the per-file determinism rules.
func (c *checker) checkFile(f *ast.File) {
	if c.contract {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p == "math/rand" || p == "math/rand/v2" {
				c.emit(imp.Pos(), RuleMathRand,
					"core package %s imports %q: pseudo-random data belongs in workloads with fixed seeds", c.pkg, p)
			}
		}
	}

	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if c.pkg != goroutinePkg {
				c.emit(n.Pos(), RuleGoroutine,
					"goroutine spawned outside %s: route concurrency through the audited worker pool", goroutinePkg)
			}
		case *ast.RangeStmt:
			if c.contract && c.isMapRange(n.X) {
				c.emit(n.Pos(), RuleMapRange,
					"range over map in core package %s: iteration order is randomized, iterate sorted keys instead", c.pkg)
			}
		case *ast.SelectorExpr:
			if c.contract && c.isTimePkg(n.X) && wallClockFuncs[n.Sel.Name] {
				c.emit(n.Pos(), RuleWallClock,
					"time.%s in core package %s: simulated time must come from the cycle counter", n.Sel.Name, c.pkg)
			}
			if c.search && c.isRandPkg(n.X) && !randCtors[n.Sel.Name] && !randTypes[n.Sel.Name] {
				c.emit(n.Pos(), RuleRandGlobal,
					"rand.%s draws from the process-global source: build a seeded *rand.Rand with rand.New(rand.NewSource(seed)) so search results replay", n.Sel.Name)
			}
		}
		return true
	})
}

// exprType resolves an expression's type via the module-local type
// info (nil when the lenient typecheck could not determine it).
func (c *checker) exprType(e ast.Expr) types.Type {
	if tv, ok := c.info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj, ok := c.info.Uses[id]; ok && obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// namedType unwraps pointers and reports the named type's name and
// defining package path ("" when t is not a named type).
func namedType(t types.Type) (name, pkg string) {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return "", ""
	}
	return obj.Name(), obj.Pkg().Path()
}

// isMapRange reports whether expr has map type.
func (c *checker) isMapRange(expr ast.Expr) bool {
	tv, ok := c.info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isPkg reports whether expr is an identifier bound to the imported
// package at path (robust against renamed imports). name is the
// fallback match when type info is incomplete.
func (c *checker) isPkg(expr ast.Expr, name string, paths ...string) bool {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	if obj, ok := c.info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			p := pn.Imported().Path()
			for _, want := range paths {
				if p == want {
					return true
				}
			}
		}
		return false
	}
	// Fallback when type info is incomplete: match the bare name.
	return id.Name == name
}

// isTimePkg reports whether expr is the imported "time" package.
func (c *checker) isTimePkg(expr ast.Expr) bool {
	return c.isPkg(expr, "time", "time")
}

// isRandPkg reports whether expr is an imported math/rand package (a
// *rand.Rand variable resolves to a Var, not a PkgName, and is not
// matched).
func (c *checker) isRandPkg(expr ast.Expr) bool {
	return c.isPkg(expr, "rand", "math/rand", "math/rand/v2")
}
