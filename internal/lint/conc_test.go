package lint

import (
	"strings"
	"testing"
)

// findingAt returns the first finding matching rule/file/line, for
// message assertions.
func findingAt(fs []Finding, rule, file string, line int) (Finding, bool) {
	for _, f := range fs {
		if f.Rule == rule && f.File == file && f.Line == line {
			return f, true
		}
	}
	return Finding{}, false
}

// TestLockGuardEarlyUnlockReturn: the unlock-and-return idiom from
// runner.Flight's submit must not leak lock state into the fall-through.
// A blocking op after the early unlock is clean; one on the fall-through,
// where the lock is still held, is the finding.
func TestLockGuardEarlyUnlockReturn(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/report/memo.go": `package report

import "sync"

type memo struct {
	mu    sync.Mutex
	items map[string]int
	waits chan int
}

func (m *memo) Get(k string) int {
	m.mu.Lock()
	if v, ok := m.items[k]; ok {
		m.mu.Unlock()
		m.waits <- v
		return v
	}
	m.waits <- 0
	m.items[k] = 1
	m.mu.Unlock()
	m.waits <- 1
	return 1
}
`,
	})
	fs := mustRun(t, root)
	if hasRule(fs, RuleLockBlocking, "internal/report/memo.go", 15) {
		t.Errorf("send after the early unlock must be clean: %v", fs)
	}
	if !hasRule(fs, RuleLockBlocking, "internal/report/memo.go", 18) {
		t.Errorf("send on the fall-through holds m.mu and must be flagged: %v", fs)
	}
	if hasRule(fs, RuleLockBlocking, "internal/report/memo.go", 21) {
		t.Errorf("send after the final unlock must be clean: %v", fs)
	}
}

// TestLockBlockingChannelSend: sending on a channel while holding the
// mutex is flagged at the send.
func TestLockBlockingChannelSend(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/report/box.go": `package report

import "sync"

type box struct {
	mu sync.Mutex
	n  int
	ch chan int
}

func (b *box) Flush() {
	b.mu.Lock()
	b.ch <- b.n
	b.mu.Unlock()
}
`,
	})
	fs := mustRun(t, root)
	f, ok := findingAt(fs, RuleLockBlocking, "internal/report/box.go", 13)
	if !ok {
		t.Fatalf("missing lock-blocking finding: %v", fs)
	}
	if !strings.Contains(f.Msg, "channel send while holding b.mu") {
		t.Errorf("unexpected message: %s", f.Msg)
	}
}

// TestLockBlockingWaitCall: a Wait-style join under a held mutex is
// flagged; the same call after Unlock is clean.
func TestLockBlockingWaitCall(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/report/pool.go": `package report

import "sync"

type pool struct {
	mu sync.Mutex
	wg sync.WaitGroup
}

func (p *pool) Drain() {
	p.mu.Lock()
	p.wg.Wait()
	p.mu.Unlock()
}

func (p *pool) DrainUnlocked() {
	p.mu.Lock()
	p.mu.Unlock()
	p.wg.Wait()
}
`,
	})
	fs := mustRun(t, root)
	if !hasRule(fs, RuleLockBlocking, "internal/report/pool.go", 12) {
		t.Errorf("missing lock-blocking finding for Wait under lock: %v", fs)
	}
	if hasRule(fs, RuleLockBlocking, "internal/report/pool.go", 19) {
		t.Errorf("Wait after Unlock must be clean: %v", fs)
	}
}

// TestLockBlockingGenericStruct: a generic struct's mutex is tracked like
// any other (runner.Flight is one).
func TestLockBlockingGenericStruct(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/report/group.go": `package report

import "sync"

type group[K comparable] struct {
	mu    sync.Mutex
	freed chan struct{}
	keys  map[K]bool
}

func (g *group[K]) wait() {
	g.mu.Lock()
	<-g.freed
	g.mu.Unlock()
}
`,
	})
	fs := mustRun(t, root)
	if !hasRule(fs, RuleLockBlocking, "internal/report/group.go", 13) {
		t.Errorf("missing lock-blocking finding in a generic struct: %v", fs)
	}
}

// TestLockBlockingSelect: a select without a default blocks; with a
// default it polls and is clean.
func TestLockBlockingSelect(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/report/sel.go": `package report

import "sync"

type sel struct {
	mu sync.Mutex
	ch chan int
}

func (s *sel) Blocking() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.ch:
	}
}

func (s *sel) Polling() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.ch:
	default:
	}
}
`,
	})
	fs := mustRun(t, root)
	if !hasRule(fs, RuleLockBlocking, "internal/report/sel.go", 13) {
		t.Errorf("missing lock-blocking finding for select without default: %v", fs)
	}
	if hasRule(fs, RuleLockBlocking, "internal/report/sel.go", 22) {
		t.Errorf("select with default must be clean: %v", fs)
	}
}

// TestLockTakingClosure: a closure created under the lock (the
// metrics-registration idiom) runs with a fresh lock state, so a blocking
// op inside it is clean; the same op in the creator's locked body is not.
func TestLockTakingClosure(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/report/box.go": `package report

import "sync"

type box struct {
	mu sync.Mutex
	n  int
	ch chan int
}

func (b *box) Snapshot() func() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return func() int {
		b.mu.Lock()
		n := b.n
		b.mu.Unlock()
		b.ch <- n
		return n
	}
}

func (b *box) Flush() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- b.n
}
`,
	})
	fs := mustRun(t, root)
	if hasRule(fs, RuleLockBlocking, "internal/report/box.go", 18) {
		t.Errorf("send inside a closure created under the lock must be clean: %v", fs)
	}
	if !hasRule(fs, RuleLockBlocking, "internal/report/box.go", 26) {
		t.Errorf("send in the locked body must be flagged: %v", fs)
	}
}

// TestHeldbyDirective: a helper documented as running under the lock is
// analyzed with //vltlint:heldby's mutex held, so its blocking op is a
// finding; without the directive the helper holds nothing and is clean.
func TestHeldbyDirective(t *testing.T) {
	src := func(directive string) string {
		return `package report

import "sync"

type gauge struct {
	mu sync.Mutex
	v  int
	ch chan int
}

func (g *gauge) Set(v int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.v = v
	g.publish()
}

// publish sends v to the watchers (callers hold the lock).
` + directive + `func (g *gauge) publish() { g.ch <- g.v }
`
	}
	root := writeTree(t, map[string]string{
		"internal/report/gauge.go": src("//\n//vltlint:heldby mu\n"),
	})
	fs := mustRun(t, root)
	f, ok := findingAt(fs, RuleLockBlocking, "internal/report/gauge.go", 21)
	if !ok {
		t.Fatalf("missing lock-blocking finding in the heldby helper: %v", fs)
	}
	if !strings.Contains(f.Msg, "channel send while holding g.mu") {
		t.Errorf("unexpected message: %s", f.Msg)
	}

	root = writeTree(t, map[string]string{
		"internal/report/gauge.go": src(""),
	})
	if fs := mustRun(t, root); len(fs) != 0 {
		t.Errorf("without heldby the helper holds no lock and is clean: %v", fs)
	}
}

// TestLockBlockingIgnore: the ignore directive suppresses a blocking
// finding and is counted as used.
func TestLockBlockingIgnore(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/report/box.go": `package report

import "sync"

type box struct {
	mu sync.Mutex
	n  int
	ch chan int
}

func (b *box) Flush() {
	b.mu.Lock()
	b.ch <- b.n //vltlint:ignore lock-blocking buffered channel, never fills in practice
	b.mu.Unlock()
	b.mu.Lock()
	b.ch <- b.n
	b.mu.Unlock()
}
`,
	})
	fs := mustRun(t, root)
	if hasRule(fs, RuleLockBlocking, "internal/report/box.go", 13) {
		t.Errorf("directive should suppress line 13: %v", fs)
	}
	if !hasRule(fs, RuleLockBlocking, "internal/report/box.go", 16) {
		t.Errorf("line 16 has no directive and must be flagged: %v", fs)
	}
	if hasRule(fs, RuleUnusedIgnore, "internal/report/box.go", -1) {
		t.Errorf("used directive must not be reported as unused: %v", fs)
	}
}

// TestUnusedIgnore: a directive that suppresses nothing is itself a
// finding at the directive's position.
func TestUnusedIgnore(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/report/ok.go": `package report

//vltlint:ignore wall-clock nothing here uses the clock
func Ok() int { return 1 }
`,
	})
	fs := mustRun(t, root)
	f, ok := findingAt(fs, RuleUnusedIgnore, "internal/report/ok.go", 3)
	if !ok {
		t.Fatalf("missing unused-ignore finding: %v", fs)
	}
	if !strings.Contains(f.Msg, `ignore directive for "wall-clock" suppresses nothing`) {
		t.Errorf("unexpected message: %s", f.Msg)
	}
}
