package guard

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// DefaultStallLimit is the forward-progress watchdog's default window: a
// run aborts when no instruction retires for this many consecutive
// cycles. The slowest legitimate dry spell in the paper's workloads (an
// L2 miss burst behind a barrier) is under 10^3 cycles, so 10^5 is a
// comfortable two orders of magnitude of slack.
const DefaultStallLimit = 100_000

// AuditEvery is the auditor's check interval in cycles, chosen so the
// full invariant sweep stays well under 5% of simulation time (see
// BenchmarkRunBaseMXMAudit).
const AuditEvery = 64

// AuditMode selects whether the runtime invariant auditor runs. The zero
// value is AuditAuto, so a zero Config audits exactly when it should:
// always under `go test`, never in production binaries unless VLT_AUDIT
// asks.
type AuditMode int

const (
	// AuditAuto enables the auditor under `go test` or when the
	// VLT_AUDIT environment variable says so (1/on/true vs 0/off/false).
	AuditAuto AuditMode = iota
	// AuditOn always audits.
	AuditOn
	// AuditOff never audits.
	AuditOff
)

// String renders the mode as auto, on or off. Cell keys hash this
// spelling, so changing one moves every key.
func (m AuditMode) String() string {
	switch m {
	case AuditOn:
		return "on"
	case AuditOff:
		return "off"
	}
	return "auto"
}

// Enabled resolves the mode to a decision: an explicit mode wins, then
// the VLT_AUDIT environment variable, then `go test` detection.
func (m AuditMode) Enabled() bool {
	switch m {
	case AuditOn:
		return true
	case AuditOff:
		return false
	}
	switch strings.ToLower(os.Getenv("VLT_AUDIT")) {
	case "1", "on", "true":
		return true
	case "0", "off", "false":
		return false
	}
	return testing.Testing()
}

// StallError reports a run aborted for lack of forward progress: either
// the watchdog saw no instruction retire for Limit consecutive cycles
// (Kind "livelock") or the run hit the MaxCycles backstop (Kind
// "max-cycles"). Dump carries the full pipeline diagnostic.
type StallError struct {
	Config string // machine configuration name
	Kind   string // "livelock" or "max-cycles"
	Cycle  uint64 // cycle the guard tripped
	Limit  uint64 // the limit that was exceeded
	Dump   string // diagnostic pipeline dump
}

func (e *StallError) Error() string {
	if e.Kind == "max-cycles" {
		return fmt.Sprintf("guard: %s exceeded %d cycles (max-cycles backstop at cycle %d)",
			e.Config, e.Limit, e.Cycle)
	}
	return fmt.Sprintf("guard: %s: no instruction retired for %d cycles (livelock detected at cycle %d)",
		e.Config, e.Limit, e.Cycle)
}

// InvariantError reports a violated cross-layer invariant: Invariant
// names the structure and check (e.g. "vcl.scoreboard",
// "su0.cache-counters"), Detail carries the mismatched numbers, and Dump
// the full pipeline diagnostic.
type InvariantError struct {
	Config    string
	Invariant string
	Cycle     uint64
	Detail    string
	Dump      string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("guard: %s: invariant %q violated at cycle %d: %s",
		e.Config, e.Invariant, e.Cycle, e.Detail)
}

// Retired is one entry of the retired-instruction ring buffer: when,
// on which thread and at which PC an instruction retired. The entry
// holds no pointer; Dump looks the instruction up by PC.
type Retired struct {
	Cycle  uint64
	Thread int
	PC     int
}

// Ring is a fixed-capacity ring buffer of the last K retired
// instructions. Push is allocation-free and stores three scalars, so it
// can run on every retire.
type Ring struct {
	buf  []Retired
	next int
	full bool
}

// NewRing returns a ring holding the last k retirements.
func NewRing(k int) *Ring {
	if k < 1 {
		k = 1
	}
	return &Ring{buf: make([]Retired, k)}
}

// Push records one retirement, evicting the oldest when full.
func (r *Ring) Push(cycle uint64, thread, pc int) {
	r.buf[r.next] = Retired{Cycle: cycle, Thread: thread, PC: pc}
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Len returns the number of recorded retirements (at most the capacity).
func (r *Ring) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Records returns the recorded retirements, oldest first.
func (r *Ring) Records() []Retired {
	if !r.full {
		return append([]Retired(nil), r.buf[:r.next]...)
	}
	out := make([]Retired, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Dump renders the ring for a diagnostic dump, oldest first, with inst
// giving the instruction at each entry's PC.
func (r *Ring) Dump(inst func(pc int) fmt.Stringer) string {
	recs := r.Records()
	if len(recs) == 0 {
		return "  (no instructions retired)\n"
	}
	var sb strings.Builder
	for _, rec := range recs {
		fmt.Fprintf(&sb, "  cycle %-8d t%d @%-5d %s\n", rec.Cycle, rec.Thread, rec.PC, inst(rec.PC))
	}
	return sb.String()
}

// Watchdog detects lack of forward progress: Observe is fed the
// machine-wide retired-instruction total every cycle and reports true
// once the total has not advanced for limit consecutive cycles.
type Watchdog struct {
	limit       uint64
	lastRetired uint64
	lastAdvance uint64
}

// NewWatchdog returns a watchdog with the given stall window (0 selects
// DefaultStallLimit).
func NewWatchdog(limit uint64) *Watchdog {
	if limit == 0 {
		limit = DefaultStallLimit
	}
	return &Watchdog{limit: limit}
}

// Limit returns the stall window in cycles.
func (w *Watchdog) Limit() uint64 { return w.limit }

// Deadline returns the first cycle at which Observe would report a
// stall if no further instruction retires. The event-driven scheduler
// clamps cycle jumps to this boundary so a livelocked machine trips the
// watchdog at exactly the same cycle as a ticked run.
func (w *Watchdog) Deadline() uint64 {
	d := w.lastAdvance + w.limit
	if d < w.lastAdvance {
		return math.MaxUint64 // saturate on overflow
	}
	return d
}

// Observe records the retired total at cycle now and reports whether the
// stall window has been exceeded.
func (w *Watchdog) Observe(now, retired uint64) bool {
	if retired != w.lastRetired {
		w.lastRetired = retired
		w.lastAdvance = now
		return false
	}
	return now-w.lastAdvance >= w.limit
}

// Auditor evaluates a set of named invariant checks every AuditEvery
// cycles. Checks are read-only closures over the machine's structures; a
// non-nil error from a check becomes an InvariantError naming it.
type Auditor struct {
	names  []string
	checks []func() error

	// Passes counts completed audit sweeps; Checks counts individual
	// invariant evaluations. Both register as guard.* metrics.
	Passes uint64
	Checks uint64
}

// NewAuditor returns an auditor with no checks registered.
func NewAuditor() *Auditor { return &Auditor{} }

// Register adds a named invariant check.
func (a *Auditor) Register(name string, check func() error) {
	a.names = append(a.names, name)
	a.checks = append(a.checks, check)
}

// Names returns the registered invariant names, in registration order.
func (a *Auditor) Names() []string { return append([]string(nil), a.names...) }

// Check runs the registered invariants if cycle now is on the audit
// interval. The first failure is returned as an InvariantError with the
// invariant name and cycle filled in; Config and Dump are the caller's to
// complete.
func (a *Auditor) Check(now uint64) *InvariantError {
	if now%AuditEvery != 0 {
		return nil
	}
	for i, check := range a.checks {
		a.Checks++
		if err := check(); err != nil {
			return &InvariantError{Invariant: a.names[i], Cycle: now, Detail: err.Error()}
		}
	}
	a.Passes++
	return nil
}
