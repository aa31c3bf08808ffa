package lint

// Concurrency-safety pass: no blocking operation while a mutex is held
// (lock-blocking).
//
// The analysis is deliberately syntactic where the stubbed stdlib makes
// go/types blind (sync.Mutex never resolves to a types.Object) and
// type-driven where the module-local typechecker can see (which struct
// does this selector land on). Blind spots are documented in DESIGN.md
// §14: RLock and Lock are not distinguished, and inter-procedural lock
// flow is out of scope — the //vltlint:heldby method directive covers
// the one idiom that needs it (helpers that document "callers hold the
// lock").

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// blockingMethods are method names that block the caller: joins, waits,
// single-flight submits and the client's network verbs. Generic names
// with non-blocking collisions in this module (Run, Get, Post) are
// deliberately absent; net/http package-level calls are matched by
// package identity instead.
var blockingMethods = map[string]bool{
	"Wait": true, "WaitContext": true, "Submit": true, "Do": true,
	"RunBody": true, "Sweep": true, "Compute": true,
}

// structInfo is the syntactic shape of one package-local struct.
type structInfo struct {
	name     string
	mutexes  map[string]bool      // mutex-typed field names ("mu", "Mutex" when embedded)
	embedded map[string]bool      // mutex names declared by embedding (x.Lock() omits the field)
	counters map[string]token.Pos // named fields with plain uint64 type, by declaration position
}

// lockState maps "base.mutexField" paths to held-ness. Values are
// copied at every branch, so maps stay tiny (a function rarely holds
// more than one lock).
type lockState map[string]bool

func (st lockState) clone() lockState {
	c := make(lockState, len(st))
	for k, v := range st {
		c[k] = v
	}
	return c
}

func (st lockState) heldKeys() []string {
	var ks []string
	for k, v := range st {
		if v {
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	return ks
}

// checkConcurrency runs the lock-blocking pass over the package.
func (c *checker) checkConcurrency() {
	p := &concPass{checker: c, structs: c.collectStructs()}
	for _, f := range c.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			st := lockState{}
			if mu, recv := heldbyDirective(fd); mu != "" && recv != "" {
				st[recv+"."+mu] = true
			}
			a := &funcAnalyzer{pass: p}
			a.block(fd.Body, st)
		}
	}
}

// heldbyDirective reads a "//vltlint:heldby <mutexField>" line from a
// method's doc comment: the named mutex on the receiver is treated as
// held for the whole body. It is the contract for internal helpers
// documented as "callers hold the lock".
func heldbyDirective(fd *ast.FuncDecl) (mutex, recv string) {
	if fd.Doc == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return "", ""
	}
	names := fd.Recv.List[0].Names
	if len(names) == 0 {
		return "", ""
	}
	for _, cm := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//"))
		if rest, ok := strings.CutPrefix(text, "vltlint:heldby"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				return fields[0], names[0].Name
			}
		}
	}
	return "", ""
}

// collectStructs gathers the package's struct declarations: which
// fields are mutexes, which are uint64 counters.
func (c *checker) collectStructs() map[string]*structInfo {
	structs := map[string]*structInfo{}
	for _, f := range c.files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				styp, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				si := &structInfo{
					name:     ts.Name.Name,
					mutexes:  map[string]bool{},
					embedded: map[string]bool{},
					counters: map[string]token.Pos{},
				}
				for _, fld := range styp.Fields.List {
					isMu, muName := c.mutexType(fld.Type)
					isCounter := false
					if id, ok := fld.Type.(*ast.Ident); ok && id.Name == "uint64" {
						isCounter = true
					}
					if len(fld.Names) == 0 {
						// Embedded field; only mutexes matter here.
						if isMu {
							si.mutexes[muName] = true
							si.embedded[muName] = true
						}
						continue
					}
					for _, name := range fld.Names {
						if isMu {
							si.mutexes[name.Name] = true
							continue
						}
						if isCounter {
							si.counters[name.Name] = name.Pos()
						}
					}
				}
				structs[si.name] = si
			}
		}
	}
	return structs
}

// mutexType reports whether a field type is sync.Mutex / sync.RWMutex
// (possibly behind a pointer), and the name the field would get if
// embedded.
func (c *checker) mutexType(e ast.Expr) (bool, string) {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false, ""
	}
	if sel.Sel.Name != "Mutex" && sel.Sel.Name != "RWMutex" {
		return false, ""
	}
	if !c.isPkg(sel.X, "sync", "sync") {
		return false, ""
	}
	return true, sel.Sel.Name
}

// concPass is the package-wide state of the lock-blocking pass.
type concPass struct {
	*checker
	structs map[string]*structInfo
}

// localStruct resolves an expression to a package-local struct name via
// the module-local type info (pointers deref'd), or "" when it is not
// one.
func (p *concPass) localStruct(e ast.Expr) string {
	t := p.exprType(e)
	if t == nil {
		return ""
	}
	name, pkg := namedType(t)
	if pkg != p.pkg {
		return ""
	}
	if _, ok := p.structs[name]; !ok {
		return ""
	}
	return name
}

// pathString renders a stable access path ("c", "s.br") or fails for
// anything with calls or indexing in it.
func pathString(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := pathString(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.ParenExpr:
		return pathString(e.X)
	}
	return "", false
}

// funcAnalyzer walks one function body flow-sensitively, threading the
// set of held locks through statements. Branches that terminate (end in
// return/branch/panic) do not leak their lock state into the
// fall-through — that is what makes the early-unlock-and-return idiom
// in runner.Flight's submit lint clean.
type funcAnalyzer struct {
	pass    *concPass
	noBlock int // >0 while inside contexts where blocking is already accounted for
}

func (a *funcAnalyzer) block(b *ast.BlockStmt, st lockState) lockState {
	return a.stmts(b.List, st)
}

func (a *funcAnalyzer) stmts(list []ast.Stmt, st lockState) lockState {
	for _, s := range list {
		st = a.stmt(s, st)
	}
	return st
}

// terminates reports whether a statement list always transfers control
// away (return, break/continue/goto, or panic) at its end.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch s := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(s.List)
	}
	return false
}

// intersect keeps only the locks held on every incoming path.
func intersect(a, b lockState) lockState {
	out := lockState{}
	for k, v := range a {
		if v && b[k] {
			out[k] = true
		}
	}
	return out
}

func (a *funcAnalyzer) stmt(s ast.Stmt, st lockState) lockState {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, locked, ok := a.lockCall(s.X); ok {
			st = st.clone()
			st[key] = locked
			return st
		}
		a.expr(s.X, st)

	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			a.expr(rhs, st)
		}
		for _, lhs := range s.Lhs {
			a.expr(lhs, st)
		}

	case *ast.IncDecStmt:
		a.expr(s.X, st)

	case *ast.SendStmt:
		a.blocking(s.Pos(), "channel send", st)
		a.expr(s.Chan, st)
		a.expr(s.Value, st)

	case *ast.DeferStmt:
		// defer x.mu.Unlock() pairs with the Lock above it: the lock
		// stays held for the rest of the body, which is exactly what
		// the current state already says. Other deferred calls run at
		// return; analyze their argument expressions and any function
		// literal, but not as blocking at this point.
		if _, _, ok := a.lockCall(s.Call); ok {
			return st
		}
		a.expr(s.Call.Fun, lockState{})
		for _, arg := range s.Call.Args {
			a.expr(arg, lockState{})
		}

	case *ast.GoStmt:
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			a.funcLit(fl)
		}
		for _, arg := range s.Call.Args {
			a.expr(arg, st)
		}

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			a.expr(r, st)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			st = a.stmt(s.Init, st)
		}
		a.expr(s.Cond, st)
		thenOut := a.block(s.Body, st.clone())
		elseOut := st
		if s.Else != nil {
			elseOut = a.stmt(s.Else, st.clone())
		}
		thenEnds := terminates(s.Body.List)
		elseEnds := false
		if eb, ok := s.Else.(*ast.BlockStmt); ok {
			elseEnds = terminates(eb.List)
		}
		switch {
		case thenEnds && elseEnds:
			return st // fall-through unreachable; state is moot
		case thenEnds:
			return elseOut
		case elseEnds:
			return thenOut
		default:
			return intersect(thenOut, elseOut)
		}

	case *ast.ForStmt:
		inner := st.clone()
		if s.Init != nil {
			inner = a.stmt(s.Init, inner)
		}
		if s.Cond != nil {
			a.expr(s.Cond, inner)
		}
		inner = a.block(s.Body, inner)
		if s.Post != nil {
			a.stmt(s.Post, inner)
		}
		return st // loops must balance their locks per iteration

	case *ast.RangeStmt:
		a.expr(s.X, st)
		a.block(s.Body, st.clone())
		return st

	case *ast.SwitchStmt:
		if s.Init != nil {
			st = a.stmt(s.Init, st)
		}
		if s.Tag != nil {
			a.expr(s.Tag, st)
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					a.expr(e, st)
				}
				a.stmts(cc.Body, st.clone())
			}
		}
		return st

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = a.stmt(s.Init, st)
		}
		a.stmt(s.Assign, st)
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				a.stmts(cc.Body, st.clone())
			}
		}
		return st

	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			a.blocking(s.Pos(), "select without default", st)
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				inner := st.clone()
				if cc.Comm != nil {
					// The comm op's blocking is the select's, already
					// reported above when there is no default.
					a.noBlock++
					inner = a.stmt(cc.Comm, inner)
					a.noBlock--
				}
				a.stmts(cc.Body, inner)
			}
		}
		return st

	case *ast.BlockStmt:
		return a.block(s, st)

	case *ast.LabeledStmt:
		return a.stmt(s.Stmt, st)

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						a.expr(v, st)
					}
				}
			}
		}
	}
	return st
}

// funcLit analyzes a function literal with a fresh, empty lock state: a
// closure runs on its own schedule (goroutine body, registered metrics
// callback), so the creator's locks are not held when it executes.
func (a *funcAnalyzer) funcLit(fl *ast.FuncLit) {
	a.block(fl.Body, lockState{})
}

// lockCall matches x.mu.Lock()/Unlock() (and the embedded-mutex form
// x.Lock()) on a package-local struct; key identifies the mutex by its
// access path.
func (a *funcAnalyzer) lockCall(e ast.Expr) (key string, locked, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		locked = true
	case "Unlock", "RUnlock":
		locked = false
	default:
		return "", false, false
	}
	base, okPath := pathString(sel.X)
	if !okPath {
		return "", false, false
	}
	// Named mutex field: x.mu.Lock() — sel.X is the selector x.mu.
	if muSel, isSel := sel.X.(*ast.SelectorExpr); isSel {
		if owner := a.pass.localStruct(muSel.X); owner != "" {
			if a.pass.structs[owner].mutexes[muSel.Sel.Name] {
				return base, locked, true
			}
		}
	}
	// Embedded mutex: x.Lock() — sel.X is the struct itself.
	if owner := a.pass.localStruct(sel.X); owner != "" {
		si := a.pass.structs[owner]
		for mu := range si.embedded {
			return base + "." + mu, locked, true
		}
	}
	return "", false, false
}

// blocking reports a blocking operation performed while any lock is
// held.
func (a *funcAnalyzer) blocking(pos token.Pos, what string, st lockState) {
	held := st.heldKeys()
	if len(held) == 0 || a.noBlock > 0 {
		return
	}
	a.pass.emit(pos, RuleLockBlocking,
		"%s while holding %s: a slow or stuck peer would stall every other holder", what, strings.Join(held, ", "))
}

// expr reports the blocking operations in an expression.
func (a *funcAnalyzer) expr(e ast.Expr, st lockState) {
	switch e := e.(type) {
	case nil:

	case *ast.Ident, *ast.BasicLit:

	case *ast.SelectorExpr:
		a.expr(e.X, st)

	case *ast.IndexExpr:
		a.expr(e.X, st)
		a.expr(e.Index, st)

	case *ast.IndexListExpr:
		a.expr(e.X, st)
		for _, idx := range e.Indices {
			a.expr(idx, st)
		}

	case *ast.SliceExpr:
		a.expr(e.X, st)
		a.expr(e.Low, st)
		a.expr(e.High, st)
		a.expr(e.Max, st)

	case *ast.StarExpr:
		a.expr(e.X, st)

	case *ast.ParenExpr:
		a.expr(e.X, st)

	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			a.blocking(e.Pos(), "channel receive", st)
			a.expr(e.X, st)
			return
		}
		a.expr(e.X, st)

	case *ast.BinaryExpr:
		a.expr(e.X, st)
		a.expr(e.Y, st)

	case *ast.CallExpr:
		a.callExpr(e, st)

	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				a.expr(kv.Value, st)
				continue
			}
			a.expr(el, st)
		}

	case *ast.TypeAssertExpr:
		a.expr(e.X, st)

	case *ast.FuncLit:
		a.funcLit(e)

	case *ast.KeyValueExpr:
		a.expr(e.Value, st)
	}
}

// callExpr handles blocking detection for calls, then recurses.
func (a *funcAnalyzer) callExpr(call *ast.CallExpr, st lockState) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch {
		case a.pass.isTimePkg(sel.X) && sel.Sel.Name == "Sleep":
			a.blocking(call.Pos(), "time.Sleep", st)
		case a.pass.isHTTPPkg(sel.X):
			a.blocking(call.Pos(), "net/http call", st)
		case blockingMethods[sel.Sel.Name]:
			a.blocking(call.Pos(), sel.Sel.Name+" call", st)
		}
		// The selector is a method or package function; recurse into
		// the receiver chain only.
		a.expr(sel.X, st)
	} else {
		a.expr(call.Fun, st)
	}
	for _, arg := range call.Args {
		a.expr(arg, st)
	}
}

// isHTTPPkg reports whether expr is the imported net/http package.
func (c *checker) isHTTPPkg(expr ast.Expr) bool {
	return c.isPkg(expr, "http", "net/http")
}
