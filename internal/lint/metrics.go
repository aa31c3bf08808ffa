package lint

// Metrics-registration exhaustiveness pass. The metrics convention
// (DESIGN.md §6) counts events in plain uint64 struct fields and
// exposes them through a registration method taking *stats.Registry
// (RegisterMetrics on the simulation components, registerMetrics /
// register on the serving layer). A counter field that the
// registration method never mentions silently vanishes from /metricsz
// — this pass makes that a lint finding at the field's declaration.
//
// Scope rules: a struct is only checked when it has a convention-named
// registration method — RegisterMetrics, registerMetrics or register —
// taking a *stats.Registry (structs whose uint64 fields are plain
// state, like Machine's cycle counter, or that register a deliberate
// subset through a differently-named helper, are not conscripted into
// the convention). When the registration method is exported, only
// exported fields are required (unexported uint64s on those structs
// are implementation state, such as a stall-until cycle); when it is
// unexported — the serving-layer convention — every uint64 field is a
// counter and must be registered. Mentions in any registry-taking
// method count as registration, so split registrars still pass.

import (
	"go/ast"
	"sort"
)

// checkMetrics cross-checks every package-local struct's uint64 counter
// fields against its registration method bodies.
func (c *checker) checkMetrics() {
	structs := c.collectStructs()

	type regMethod struct {
		recv       string // receiver identifier ("s")
		convention bool   // named RegisterMetrics / registerMetrics / register
		exported   bool
		body       *ast.BlockStmt
	}
	methods := map[string][]regMethod{} // struct name -> registry-taking methods
	for _, f := range c.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			if !c.hasRegistryParam(fd.Type) {
				continue
			}
			recvType := fd.Recv.List[0].Type
			if star, ok := recvType.(*ast.StarExpr); ok {
				recvType = star.X
			}
			id, ok := recvType.(*ast.Ident)
			if !ok {
				continue
			}
			if _, ok := structs[id.Name]; !ok {
				continue
			}
			recvName := ""
			if names := fd.Recv.List[0].Names; len(names) > 0 {
				recvName = names[0].Name
			}
			fn := fd.Name.Name
			methods[id.Name] = append(methods[id.Name], regMethod{
				recv:       recvName,
				convention: fn == "RegisterMetrics" || fn == "registerMetrics" || fn == "register",
				exported:   ast.IsExported(fn),
				body:       fd.Body,
			})
		}
	}

	names := make([]string, 0, len(methods))
	for name := range methods {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		si := structs[name]
		ms := methods[name]
		subject := false
		exportedOnly := false
		for _, m := range ms {
			if m.convention {
				subject = true
				if m.exported {
					exportedOnly = true
				}
			}
		}
		if !subject {
			continue
		}
		// A field is registered when any registration method mentions
		// it as a selector on the receiver (&s.requests, s.failures).
		mentioned := map[string]bool{}
		for _, m := range ms {
			recv := m.recv
			ast.Inspect(m.body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
					mentioned[sel.Sel.Name] = true
				}
				return true
			})
		}
		fields := make([]string, 0, len(si.counters))
		for f := range si.counters {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		for _, f := range fields {
			if exportedOnly && !ast.IsExported(f) {
				continue
			}
			if mentioned[f] {
				continue
			}
			c.emit(si.counters[f], RuleMetricsReg,
				"counter field %s.%s is never registered: it will be invisible in /metricsz and the stats export", name, f)
		}
	}
}

// hasRegistryParam reports whether a function signature takes a
// *stats.Registry.
func (c *checker) hasRegistryParam(ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, fld := range ft.Params.List {
		t := fld.Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		sel, ok := t.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Registry" {
			continue
		}
		if c.isPkg(sel.X, "stats", statsPkg) {
			return true
		}
	}
	return false
}
