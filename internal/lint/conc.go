package lint

// Concurrency-safety passes: lock-discipline (guarded-field inference,
// blocking-while-locked) and goroutine-ownership (every go statement
// outside the audited worker pool must be provably joined).
//
// The analysis is deliberately syntactic where the stubbed stdlib makes
// go/types blind (sync.Mutex never resolves to a types.Object) and
// type-driven where the module-local typechecker can see (which struct
// does this selector land on). Blind spots are documented in DESIGN.md
// §14: address-taken accesses (&s.counter, the atomic and registration
// idioms) are invisible, RLock and Lock are not distinguished, and
// inter-procedural lock flow is out of scope — the //vltlint:heldby
// method directive covers the one idiom that needs it (helpers that
// document "callers hold the lock").

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
	"RunBody": true, "Sweep": true, "Healthz": true, "Compute": true,
}

// structInfo is the syntactic shape of one package-local struct.
type structInfo struct {
	name     string
	mutexes  map[string]bool      // mutex-typed field names ("mu", "Mutex" when embedded)
	embedded map[string]bool      // mutex names declared by embedding (x.Lock() omits the field)
	fields   map[string]token.Pos // non-mutex named fields, by declaration position
	counters map[string]token.Pos // the subset of fields with plain uint64 type
}

// access is one direct read or write of a struct field, with the set of
// that struct's mutexes held at the access site.
type access struct {
	typ, field string
	base       string // path expression of the struct value ("c", "s.br")
	pos        token.Pos
	write      bool
	held       map[string]bool // mutex field names held for this base
}

// goSpawn is one go statement and the function body it must be joined
// in.
type goSpawn struct {
	stmt      *ast.GoStmt
	enclosing *ast.BlockStmt
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

// checkConcurrency runs the lock-discipline and goroutine-ownership
// passes over the package.
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
			a.funcs = append(a.funcs, fd.Body)
			a.block(fd.Body, st)
		}
	}
	p.inferGuards()
	p.checkJoins()
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
// fields are mutexes, which are data.
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
				if !ok || ts.TypeParams != nil {
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
					fields:   map[string]token.Pos{},
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
						si.fields[name.Name] = name.Pos()
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

// concPass accumulates the package-wide evidence the two passes need.
type concPass struct {
	*checker
	structs  map[string]*structInfo
	accesses []access
	spawns   []goSpawn
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
	funcs   []*ast.BlockStmt // innermost enclosing function body last
	noBlock int              // >0 while inside contexts where blocking is already accounted for
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
		a.expr(s.X, st, false)

	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			a.expr(rhs, st, false)
		}
		for _, lhs := range s.Lhs {
			a.expr(lhs, st, true)
		}

	case *ast.IncDecStmt:
		a.expr(s.X, st, true)

	case *ast.SendStmt:
		a.blocking(s.Pos(), "channel send", st)
		a.expr(s.Chan, st, false)
		a.expr(s.Value, st, false)

	case *ast.DeferStmt:
		// defer x.mu.Unlock() pairs with the Lock above it: the lock
		// stays held for the rest of the body, which is exactly what
		// the current state already says. Other deferred calls run at
		// return; analyze their argument expressions and any function
		// literal, but not as blocking at this point.
		if _, _, ok := a.lockCall(s.Call); ok {
			return st
		}
		a.exprNoBlock(s.Call.Fun, st)
		for _, arg := range s.Call.Args {
			a.exprNoBlock(arg, st)
		}

	case *ast.GoStmt:
		a.pass.spawns = append(a.pass.spawns, goSpawn{stmt: s, enclosing: a.funcs[len(a.funcs)-1]})
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			a.funcLit(fl)
		}
		for _, arg := range s.Call.Args {
			a.expr(arg, st, false)
		}

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			a.expr(r, st, false)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			st = a.stmt(s.Init, st)
		}
		a.expr(s.Cond, st, false)
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
			a.expr(s.Cond, inner, false)
		}
		inner = a.block(s.Body, inner)
		if s.Post != nil {
			a.stmt(s.Post, inner)
		}
		return st // loops must balance their locks per iteration

	case *ast.RangeStmt:
		a.expr(s.X, st, false)
		a.block(s.Body, st.clone())
		return st

	case *ast.SwitchStmt:
		if s.Init != nil {
			st = a.stmt(s.Init, st)
		}
		if s.Tag != nil {
			a.expr(s.Tag, st, false)
		}
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					a.expr(e, st, false)
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
						a.expr(v, st, false)
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
	a.funcs = append(a.funcs, fl.Body)
	a.block(fl.Body, lockState{})
	a.funcs = a.funcs[:len(a.funcs)-1]
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

// exprNoBlock analyzes an expression without reporting blocking ops at
// this site (deferred calls run at return time).
func (a *funcAnalyzer) exprNoBlock(e ast.Expr, st lockState) {
	if fl, ok := e.(*ast.FuncLit); ok {
		a.funcLit(fl)
		return
	}
	a.expr(e, lockState{}, false)
	_ = st
}

// expr records field accesses and blocking operations in an expression.
// write marks the outermost addressable chain as a write (assignment
// LHS, ++/--).
func (a *funcAnalyzer) expr(e ast.Expr, st lockState, write bool) {
	switch e := e.(type) {
	case nil:

	case *ast.Ident, *ast.BasicLit:

	case *ast.SelectorExpr:
		a.recordAccess(e, st, write)
		a.expr(e.X, st, false)

	case *ast.IndexExpr:
		a.expr(e.X, st, write)
		a.expr(e.Index, st, false)

	case *ast.IndexListExpr:
		a.expr(e.X, st, write)
		for _, idx := range e.Indices {
			a.expr(idx, st, false)
		}

	case *ast.SliceExpr:
		a.expr(e.X, st, false)
		a.expr(e.Low, st, false)
		a.expr(e.High, st, false)
		a.expr(e.Max, st, false)

	case *ast.StarExpr:
		a.expr(e.X, st, write)

	case *ast.ParenExpr:
		a.expr(e.X, st, write)

	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			a.blocking(e.Pos(), "channel receive", st)
			a.expr(e.X, st, false)
			return
		}
		if e.Op == token.AND {
			// Address-taken accesses (&s.counter) are the atomic and
			// metrics-registration idioms: invisible to the guarded-
			// field inference by design (DESIGN.md §14). Function
			// literals inside still get analyzed.
			ast.Inspect(e.X, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					a.funcLit(fl)
					return false
				}
				return true
			})
			return
		}
		a.expr(e.X, st, false)

	case *ast.BinaryExpr:
		a.expr(e.X, st, false)
		a.expr(e.Y, st, false)

	case *ast.CallExpr:
		a.callExpr(e, st)

	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				a.expr(kv.Value, st, false)
				continue
			}
			a.expr(el, st, false)
		}

	case *ast.TypeAssertExpr:
		a.expr(e.X, st, false)

	case *ast.FuncLit:
		a.funcLit(e)

	case *ast.KeyValueExpr:
		a.expr(e.Value, st, false)
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
		// The selector is a method or package function, not a field
		// read; recurse into the receiver chain only.
		a.expr(sel.X, st, false)
	} else {
		a.expr(call.Fun, st, false)
	}
	for _, arg := range call.Args {
		a.expr(arg, st, false)
	}
}

// recordAccess notes a direct field access on a package-local struct,
// with the mutexes of that struct currently held for the same base
// path.
func (a *funcAnalyzer) recordAccess(sel *ast.SelectorExpr, st lockState, write bool) {
	owner := a.pass.localStruct(sel.X)
	if owner == "" {
		return
	}
	si := a.pass.structs[owner]
	if _, isField := si.fields[sel.Sel.Name]; !isField {
		return
	}
	base, ok := pathString(sel.X)
	if !ok {
		return
	}
	held := map[string]bool{}
	for mu := range si.mutexes {
		if st[base+"."+mu] {
			held[mu] = true
		}
	}
	a.pass.accesses = append(a.pass.accesses, access{
		typ: owner, field: sel.Sel.Name, base: base,
		pos: sel.Sel.Pos(), write: write, held: held,
	})
}

// isHTTPPkg reports whether expr is the imported net/http package.
func (c *checker) isHTTPPkg(expr ast.Expr) bool {
	return c.isPkg(expr, "http", "net/http")
}

// inferGuards runs the guarded-field inference: a field is guarded by a
// mutex when it is written at least once and the majority of its direct
// accesses hold that mutex. Every access that does not hold the
// inferred guard is a finding.
func (p *concPass) inferGuards() {
	type key struct{ typ, field string }
	byField := map[key][]access{}
	for _, acc := range p.accesses {
		k := key{acc.typ, acc.field}
		byField[k] = append(byField[k], acc)
	}
	keys := make([]key, 0, len(byField))
	for k := range byField {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].typ != keys[j].typ {
			return keys[i].typ < keys[j].typ
		}
		return keys[i].field < keys[j].field
	})
	for _, k := range keys {
		accs := byField[k]
		si := p.structs[k.typ]
		writes := 0
		for _, acc := range accs {
			if acc.write {
				writes++
			}
		}
		if writes == 0 {
			continue // immutable after construction; no guard needed
		}
		mus := make([]string, 0, len(si.mutexes))
		for mu := range si.mutexes {
			mus = append(mus, mu)
		}
		sort.Strings(mus)
		for _, mu := range mus {
			heldCount := 0
			for _, acc := range accs {
				if acc.held[mu] {
					heldCount++
				}
			}
			if heldCount*2 <= len(accs) {
				continue // not the majority: mu does not guard this field
			}
			for _, acc := range accs {
				if !acc.held[mu] {
					p.emit(acc.pos, RuleLockGuard,
						"%s.%s is guarded by %s (%d/%d accesses hold it) but this access does not",
						k.typ, k.field, mu, heldCount, len(accs))
				}
			}
			break // one guard per field is enough to report against
		}
	}
}

// checkJoins enforces goroutine ownership: outside the audited worker
// pool, every go statement must be provably joined in its enclosing
// function — a Wait/WaitContext call, a receive from a done channel the
// goroutine closes or sends on, or a context cancel paired with the
// goroutine watching Done.
func (p *concPass) checkJoins() {
	if p.pkg == goroutinePkg {
		return
	}
	for _, sp := range p.spawns {
		if joinEvidence(sp) {
			continue
		}
		p.emit(sp.stmt.Pos(), RuleGoJoin,
			"goroutine is not provably joined: no Wait/WaitContext, done-channel receive, or context cancel in the enclosing function")
	}
}

func joinEvidence(sp goSpawn) bool {
	// (a) Any Wait/WaitContext call in the enclosing function
	// (WaitGroup, runner.Group, task join).
	found := false
	ast.Inspect(sp.enclosing, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if sel.Sel.Name == "Wait" || sel.Sel.Name == "WaitContext" {
					found = true
					return false
				}
			}
		}
		return true
	})
	if found {
		return true
	}

	body, ok := sp.stmt.Call.Fun.(*ast.FuncLit)
	if !ok {
		return false
	}

	// (b) Done channel: the goroutine closes or sends on an identifier
	// channel the enclosing function receives from.
	signaled := map[string]bool{}
	ast.Inspect(body.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if ch, ok := n.Args[0].(*ast.Ident); ok {
					signaled[ch.Name] = true
				}
			}
		case *ast.SendStmt:
			if ch, ok := n.Chan.(*ast.Ident); ok {
				signaled[ch.Name] = true
			}
		}
		return true
	})
	if len(signaled) > 0 {
		received := false
		ast.Inspect(sp.enclosing, func(n ast.Node) bool {
			if u, ok := n.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				if ch, ok := u.X.(*ast.Ident); ok && signaled[ch.Name] {
					received = true
					return false
				}
			}
			return true
		})
		if received {
			return true
		}
	}

	// (c) Context cancel: the function calls (or defers) a cancel func
	// from context.WithCancel/WithTimeout/WithDeadline, and the
	// goroutine watches Done.
	cancels := map[string]bool{}
	ast.Inspect(sp.enclosing, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 2 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "WithCancel", "WithTimeout", "WithDeadline":
			if id, ok := as.Lhs[1].(*ast.Ident); ok {
				cancels[id.Name] = true
			}
		}
		return true
	})
	if len(cancels) > 0 {
		watchesDone := false
		ast.Inspect(body.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				watchesDone = true
				return false
			}
			return true
		})
		called := false
		ast.Inspect(sp.enclosing, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && cancels[id.Name] {
					called = true
					return false
				}
			}
			return true
		})
		if watchesDone && called {
			return true
		}
	}
	return false
}
