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

// TestLockGuardUnguardedAccess: a field written under the mutex in the
// majority of accesses is guarded; the one bare access is the finding.
func TestLockGuardUnguardedAccess(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/report/box.go": `package report

import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

func (b *box) Inc() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

func (b *box) Add(d int) {
	b.mu.Lock()
	b.n += d
	b.mu.Unlock()
}

func (b *box) Peek() int { return b.n }
`,
	})
	fs := mustRun(t, root)
	f, ok := findingAt(fs, RuleLockGuard, "internal/report/box.go", 22)
	if !ok {
		t.Fatalf("missing lock-guard finding: %v", fs)
	}
	if !strings.Contains(f.Msg, "box.n is guarded by mu (2/3 accesses hold it)") {
		t.Errorf("unexpected message: %s", f.Msg)
	}
}

// TestLockGuardAllLockedClean: consistent locking produces no findings.
func TestLockGuardAllLockedClean(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/report/box.go": `package report

import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

func (b *box) Inc() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}

func (b *box) Peek() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}
`,
	})
	if fs := mustRun(t, root); len(fs) != 0 {
		t.Errorf("consistently locked field should be clean: %v", fs)
	}
}

// TestLockGuardEarlyUnlockReturn: the unlock-and-return idiom from
// runner.Flight's submit must not leak lock state into the fall-through.
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
		return v
	}
	m.items[k] = 1
	m.mu.Unlock()
	m.waits <- 1
	return 1
}
`,
	})
	if fs := mustRun(t, root); len(fs) != 0 {
		t.Errorf("early-unlock-return should be clean: %v", fs)
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

// TestLockTakingClosure: a closure that takes the lock itself (the
// metrics-registration idiom) runs with a fresh lock state — clean on
// both sides.
func TestLockTakingClosure(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/report/box.go": `package report

import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

func (b *box) Inc() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}

func (b *box) Snapshot() func() int {
	return func() int {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.n
	}
}
`,
	})
	if fs := mustRun(t, root); len(fs) != 0 {
		t.Errorf("lock-taking closure should be clean: %v", fs)
	}
}

// TestHeldbyDirective: a helper documented as running under the lock is
// covered by //vltlint:heldby; without it the writes are findings.
func TestHeldbyDirective(t *testing.T) {
	src := func(directive string) string {
		return `package report

import "sync"

type gauge struct {
	mu sync.Mutex
	v  int
}

func (g *gauge) Set(v int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.v = v
	g.bump()
}

func (g *gauge) Get() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// bump advances v (callers hold the lock).
` + directive + `func (g *gauge) bump() { g.v++ }
`
	}
	root := writeTree(t, map[string]string{
		"internal/report/gauge.go": src("//\n//vltlint:heldby mu\n"),
	})
	if fs := mustRun(t, root); len(fs) != 0 {
		t.Errorf("heldby-annotated helper should be clean: %v", fs)
	}

	root = writeTree(t, map[string]string{
		"internal/report/gauge.go": src(""),
	})
	fs := mustRun(t, root)
	if !hasRule(fs, RuleLockGuard, "internal/report/gauge.go", 24) {
		t.Errorf("missing lock-guard finding without heldby: %v", fs)
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

// TestGoJoinUnjoined: a goroutine with no join evidence is a go-join
// finding, layered on top of (and independently of) the goroutine ban.
func TestGoJoinUnjoined(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/report/spawn.go": `package report

func Spawn(f func()) {
	go f() //vltlint:ignore goroutine test double, fire and forget
}
`,
	})
	fs := mustRun(t, root)
	f, ok := findingAt(fs, RuleGoJoin, "internal/report/spawn.go", 4)
	if !ok {
		t.Fatalf("missing go-join finding: %v", fs)
	}
	if !strings.Contains(f.Msg, "not provably joined") {
		t.Errorf("unexpected message: %s", f.Msg)
	}
}

// TestGoJoinWaitGroup: WaitGroup join evidence in the same function
// satisfies the ownership rule.
func TestGoJoinWaitGroup(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/report/spawn.go": `package report

import "sync"

func Spawn(f func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { //vltlint:ignore goroutine joined by wg.Wait below
		defer wg.Done()
		f()
	}()
	wg.Wait()
}
`,
	})
	fs := mustRun(t, root)
	if hasRule(fs, RuleGoJoin, "internal/report/spawn.go", -1) {
		t.Errorf("WaitGroup-joined goroutine must be clean: %v", fs)
	}
}

// TestGoJoinDoneChannel: closing a channel the spawner receives from is
// join evidence.
func TestGoJoinDoneChannel(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/report/spawn.go": `package report

func Spawn(f func()) {
	done := make(chan struct{})
	go func() { //vltlint:ignore goroutine joined by the done receive below
		defer close(done)
		f()
	}()
	<-done
}
`,
	})
	fs := mustRun(t, root)
	if hasRule(fs, RuleGoJoin, "internal/report/spawn.go", -1) {
		t.Errorf("done-channel-joined goroutine must be clean: %v", fs)
	}
}

// TestGoJoinContextCancel: a cancel call plus a Done watch in the
// goroutine is join evidence.
func TestGoJoinContextCancel(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/report/spawn.go": `package report

import "context"

func Spawn(f func()) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { //vltlint:ignore goroutine cancelled via ctx
		for {
			select {
			case <-ctx.Done():
				return
			default:
				f()
			}
		}
	}()
}
`,
	})
	fs := mustRun(t, root)
	if hasRule(fs, RuleGoJoin, "internal/report/spawn.go", -1) {
		t.Errorf("context-cancelled goroutine must be clean: %v", fs)
	}
}

// TestGoJoinRunnerExempt: internal/runner owns its goroutines; the
// ownership rule does not bind there.
func TestGoJoinRunnerExempt(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/runner/pool.go": `package runner

func Spawn(f func()) {
	go f()
}
`,
	})
	fs := mustRun(t, root)
	if hasRule(fs, RuleGoJoin, "internal/runner/pool.go", -1) {
		t.Errorf("go-join must exempt internal/runner: %v", fs)
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
