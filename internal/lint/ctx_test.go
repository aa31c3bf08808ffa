package lint

import (
	"strings"
	"testing"
)

// TestCtxBackground: minting a root context in a serving-layer package
// is banned; the same code outside the serving layer is not.
func TestCtxBackground(t *testing.T) {
	src := `package %s

import "context"

func Go() context.Context { return context.Background() }
`
	root := writeTree(t, map[string]string{
		"internal/serve/bad.go": strings.Replace(src, "%s", "serve", 1),
		"internal/report/ok.go": strings.Replace(src, "%s", "report", 1),
		"internal/fleet/bad.go": strings.Replace(src, "%s", "fleet", 1),
	})
	fs := mustRun(t, root)
	f, ok := findingAt(fs, RuleCtxBackground, "internal/serve/bad.go", 5)
	if !ok {
		t.Fatalf("missing ctx-background finding in serve: %v", fs)
	}
	if !strings.Contains(f.Msg, "context.Background mints a fresh root context") {
		t.Errorf("unexpected message: %s", f.Msg)
	}
	if !hasRule(fs, RuleCtxBackground, "internal/fleet/bad.go", 5) {
		t.Errorf("missing ctx-background finding in fleet: %v", fs)
	}
	if hasRule(fs, RuleCtxBackground, "internal/report/ok.go", -1) {
		t.Errorf("ctx-background must only bind the serving layer: %v", fs)
	}
}

// TestCtxPropagateNewRequest: building a request without the caller's
// context drops the deadline.
func TestCtxPropagateNewRequest(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/vltclient/req.go": `package vltclient

import (
	"context"
	"net/http"
)

func fetch(ctx context.Context, url string) (*http.Request, error) {
	return http.NewRequest("GET", url, nil)
}
`,
	})
	fs := mustRun(t, root)
	f, ok := findingAt(fs, RuleCtxPropagate, "internal/vltclient/req.go", 9)
	if !ok {
		t.Fatalf("missing ctx-propagate finding: %v", fs)
	}
	if !strings.Contains(f.Msg, "http.NewRequest drops the caller's deadline") {
		t.Errorf("unexpected message: %s", f.Msg)
	}
}

// TestCtxPropagateDerivedClean: threading the context (directly or via
// a derived child) is the sanctioned pattern.
func TestCtxPropagateDerivedClean(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/vltclient/req.go": `package vltclient

import (
	"context"
	"net/http"
	"time"
)

func fetch(ctx context.Context, url string) (*http.Request, error) {
	cctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	return http.NewRequestWithContext(cctx, "GET", url, nil)
}
`,
	})
	if fs := mustRun(t, root); len(fs) != 0 {
		t.Errorf("derived context should be clean: %v", fs)
	}
}

// TestCtxPropagateNonDerived: passing a context that is not derived
// from the caller's does not propagate the deadline.
func TestCtxPropagateNonDerived(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/serve/req.go": `package serve

import (
	"context"
	"net/http"
)

var stashed = context.TODO()

func fetch(ctx context.Context, url string) (*http.Request, error) {
	return http.NewRequestWithContext(stashed, "GET", url, nil)
}
`,
	})
	fs := mustRun(t, root)
	if !hasRule(fs, RuleCtxPropagate, "internal/serve/req.go", 11) {
		t.Errorf("missing ctx-propagate finding for non-derived context: %v", fs)
	}
}

// TestCtxPropagateTimeSleep: sleeping ignores cancellation.
func TestCtxPropagateTimeSleep(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/fleet/wait.go": `package fleet

import (
	"context"
	"time"
)

func waitABit(ctx context.Context) {
	time.Sleep(time.Second)
}
`,
	})
	fs := mustRun(t, root)
	f, ok := findingAt(fs, RuleCtxPropagate, "internal/fleet/wait.go", 9)
	if !ok {
		t.Fatalf("missing ctx-propagate finding for time.Sleep: %v", fs)
	}
	if !strings.Contains(f.Msg, "time.Sleep cannot be cancelled") {
		t.Errorf("unexpected message: %s", f.Msg)
	}
}

// TestCtxPropagateLocalCall: calling a package-local context-first
// function must pass a derived context as arg0.
func TestCtxPropagateLocalCall(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/serve/call.go": `package serve

import "context"

var stale context.Context

func inner(ctx context.Context) error { return nil }

func outerBad(ctx context.Context) error { return inner(stale) }

func outerGood(ctx context.Context) error { return inner(ctx) }
`,
	})
	fs := mustRun(t, root)
	if !hasRule(fs, RuleCtxPropagate, "internal/serve/call.go", 9) {
		t.Errorf("missing ctx-propagate finding for stale context arg: %v", fs)
	}
	if hasRule(fs, RuleCtxPropagate, "internal/serve/call.go", 11) {
		t.Errorf("threading the parameter must be clean: %v", fs)
	}
}

// TestCtxPropagateMethodTable: the client-verb methods (RunBody etc.)
// must receive a derived context wherever they are called from.
func TestCtxPropagateMethodTable(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/fleet/route.go": `package fleet

import "context"

type runner interface {
	RunBody(ctx context.Context, req string) ([]byte, error)
}

var stale context.Context

func routeBad(ctx context.Context, p runner) ([]byte, error) { return p.RunBody(stale, "") }

func routeGood(ctx context.Context, p runner) ([]byte, error) { return p.RunBody(ctx, "") }
`,
	})
	fs := mustRun(t, root)
	if !hasRule(fs, RuleCtxPropagate, "internal/fleet/route.go", 11) {
		t.Errorf("missing ctx-propagate finding for RunBody with stale context: %v", fs)
	}
	if hasRule(fs, RuleCtxPropagate, "internal/fleet/route.go", 13) {
		t.Errorf("RunBody(ctx, ...) must be clean: %v", fs)
	}
}

// TestCtxRequestScopedClean: contexts from *http.Request.Context() are
// request-scoped and already deadline-bound.
func TestCtxRequestScopedClean(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/serve/handler.go": `package serve

import (
	"context"
	"net/http"
)

func inner(ctx context.Context) error { return nil }

func handle(ctx context.Context, r *http.Request) error {
	rctx := r.Context()
	return inner(rctx)
}
`,
	})
	if fs := mustRun(t, root); len(fs) != 0 {
		t.Errorf("request-scoped context should be clean: %v", fs)
	}
}

// TestCtxIgnoreDirective: the uniform ignore contract covers the ctx
// rules too.
func TestCtxIgnoreDirective(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/serve/boot.go": `package serve

import "context"

func boot() context.Context {
	//vltlint:ignore ctx-background process boot path, not a request path
	return context.Background()
}
`,
	})
	if fs := mustRun(t, root); len(fs) != 0 {
		t.Errorf("directive should suppress ctx-background: %v", fs)
	}
}
