package lint

// Deadline-propagation pass. In the serving-layer packages (ctxPkgs:
// internal/serve, internal/fleet, internal/vltclient) every function
// that receives a context.Context must thread it — or a context derived
// from it — into each blocking call it makes, and minting fresh root
// contexts (context.Background/TODO) is banned outright: a request
// path that drops its deadline turns a slow peer into an unbounded
// stall for the caller.

import "go/ast"

// ctxDerivers are the context package functions that derive a child
// context from a parent.
var ctxDerivers = map[string]bool{
	"WithCancel": true, "WithTimeout": true, "WithDeadline": true,
	"WithValue": true, "WithCancelCause": true, "WithTimeoutCause": true,
	"WithDeadlineCause": true,
}

// ctxFirstMethods are cross-package methods whose first parameter is a
// context (the daemon client's verbs, the runner's context-aware join):
// their arg0 must be derived from the caller's context.
var ctxFirstMethods = map[string]bool{
	"RunBody": true, "Sweep": true, "Compute": true,
	"WaitContext": true,
}

// httpNoCtxFuncs are net/http package-level helpers that use the
// background context internally and therefore cannot carry a deadline.
var httpNoCtxFuncs = map[string]bool{
	"Get": true, "Post": true, "Head": true, "PostForm": true,
}

// checkCtx runs the deadline-propagation pass over one serving-layer
// package.
func (c *checker) checkCtx() {
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if c.isCtxPkg(sel.X) && (sel.Sel.Name == "Background" || sel.Sel.Name == "TODO") {
				c.emit(call.Pos(), RuleCtxBackground,
					"context.%s mints a fresh root context on a request path: accept and propagate the caller's context instead", sel.Sel.Name)
			}
			return true
		})
	}

	sigs := c.ctxFirstFuncs()
	for _, f := range c.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			params := ctxParams(c, fd.Type)
			if len(params) == 0 {
				continue
			}
			c.checkCtxFunc(fd, params, sigs)
		}
	}
}

// ctxFirstFuncs collects the names of package-local functions and
// methods whose first parameter is a context.Context: calls to them
// must pass a derived context as arg0.
func (c *checker) ctxFirstFuncs() map[string]bool {
	sigs := map[string]bool{}
	for _, f := range c.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Type.Params == nil || len(fd.Type.Params.List) == 0 {
				continue
			}
			first := fd.Type.Params.List[0]
			if c.isCtxType(first.Type) {
				sigs[fd.Name.Name] = true
			}
		}
	}
	return sigs
}

// ctxParams returns the names of a function type's context.Context
// parameters.
func ctxParams(c *checker, ft *ast.FuncType) []string {
	if ft.Params == nil {
		return nil
	}
	var names []string
	for _, fld := range ft.Params.List {
		if !c.isCtxType(fld.Type) {
			continue
		}
		for _, name := range fld.Names {
			if name.Name != "_" {
				names = append(names, name.Name)
			}
		}
	}
	return names
}

// isCtxType reports whether a type expression is context.Context.
func (c *checker) isCtxType(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	return c.isCtxPkg(sel.X)
}

// isCtxPkg reports whether expr is the imported context package.
func (c *checker) isCtxPkg(expr ast.Expr) bool {
	return c.isPkg(expr, "context", "context")
}

// checkCtxFunc flags the blocking calls in one context-receiving
// function that fail to thread the context through.
func (c *checker) checkCtxFunc(fd *ast.FuncDecl, params []string, sigs map[string]bool) {
	derived := map[string]bool{}
	for _, p := range params {
		derived[p] = true
	}
	// Context parameters of nested function literals are derived too
	// (the literal's caller is responsible for what it passes in).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			for _, p := range ctxParams(c, fl.Type) {
				derived[p] = true
			}
		}
		return true
	})
	// Grow the derived set to a fixpoint over the body's assignments:
	// children of derived contexts (context.WithTimeout(ctx, ...)),
	// plain aliases, and request-scoped contexts (r.Context()).
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				return true
			}
			if !c.isDerivedCtx(as.Rhs[0], derived) {
				return true
			}
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" && !derived[id.Name] {
				derived[id.Name] = true
				changed = true
			}
			return true
		})
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := call.Fun
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			switch {
			case c.isHTTPPkg(sel.X) && sel.Sel.Name == "NewRequest":
				c.emit(call.Pos(), RuleCtxPropagate,
					"http.NewRequest drops the caller's deadline: use http.NewRequestWithContext")
			case c.isHTTPPkg(sel.X) && httpNoCtxFuncs[sel.Sel.Name]:
				c.emit(call.Pos(), RuleCtxPropagate,
					"http.%s cannot carry a deadline: build the request with http.NewRequestWithContext and use a client Do", sel.Sel.Name)
			case c.isHTTPPkg(sel.X) && sel.Sel.Name == "NewRequestWithContext":
				if len(call.Args) > 0 && !c.isDerivedCtx(call.Args[0], derived) {
					c.emit(call.Pos(), RuleCtxPropagate,
						"request context is not derived from the caller's context: the deadline does not propagate")
				}
			case c.isTimePkg(sel.X) && sel.Sel.Name == "Sleep":
				c.emit(call.Pos(), RuleCtxPropagate,
					"time.Sleep cannot be cancelled: use a timer and select on the context's Done channel")
			case ctxFirstMethods[sel.Sel.Name] || sigs[sel.Sel.Name]:
				if len(call.Args) > 0 && !c.isDerivedCtx(call.Args[0], derived) {
					c.emit(call.Pos(), RuleCtxPropagate,
						"%s is called with a context not derived from the caller's: the deadline does not propagate", sel.Sel.Name)
				}
			}
			return true
		}
		if id, ok := fun.(*ast.Ident); ok && sigs[id.Name] {
			if len(call.Args) > 0 && !c.isDerivedCtx(call.Args[0], derived) {
				c.emit(call.Pos(), RuleCtxPropagate,
					"%s is called with a context not derived from the caller's: the deadline does not propagate", id.Name)
			}
		}
		return true
	})
}

// isDerivedCtx reports whether an expression yields a context derived
// from the function's context parameters: the parameter itself, an
// alias, a context.WithX child of a derived context, or a
// request-scoped Context() accessor.
func (c *checker) isDerivedCtx(e ast.Expr, derived map[string]bool) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return derived[e.Name]
	case *ast.ParenExpr:
		return c.isDerivedCtx(e.X, derived)
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		if sel.Sel.Name == "Context" && len(e.Args) == 0 {
			return true // req.Context(): request-scoped, already deadline-bound
		}
		if c.isCtxPkg(sel.X) && ctxDerivers[sel.Sel.Name] {
			return len(e.Args) > 0 && c.isDerivedCtx(e.Args[0], derived)
		}
	}
	return false
}
