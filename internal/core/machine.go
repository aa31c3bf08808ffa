package core

import (
	"cmp"
	"fmt"
	"slices"

	"vlt/internal/asm"
	"vlt/internal/guard"
	"vlt/internal/isa"
	"vlt/internal/lane"
	"vlt/internal/mem"
	"vlt/internal/pipe"
	"vlt/internal/scalar"
	"vlt/internal/stats"
	"vlt/internal/vcl"
	"vlt/internal/vm"
)

// location maps a software thread onto hardware.
type location struct {
	onLane bool
	unit   int // SU index or lane-core index
	slot   int // SMT slot (SUs only)
}

// Result is one finished run: the configuration's name, the two
// headline counts, and the registry snapshot taken at the end. The
// snapshot is the run's only census — per-unit pipeline counts, the
// Figure-4 utilization, the region opportunity and the functional
// operation mix are read from it by name (su0.fetch.instrs,
// vcl.util.busy, machine.opportunity_pct, vm.ops.pct_vect).
type Result struct {
	Config  string
	Cycles  uint64
	Retired uint64 // instructions retired, all threads

	metrics stats.Snapshot
}

// Metrics returns the run's registry snapshot: every registered counter
// and gauge, sorted by name.
func (r Result) Metrics() stats.Snapshot { return r.metrics }

// Machine is one configured processor with a loaded program.
type Machine struct {
	cfg   Config
	vm    *vm.VM
	arena *pipe.Arena // every in-flight uop, shared by all pipelines
	l2    *mem.L2
	vu    *vcl.VCL
	sus   []*scalar.Unit
	lcs   []*lane.Core
	locs  []location

	region []int64 // current MARK region per thread (updated at retire)
	now    uint64

	// retireHook observes every retirement (SetRetireHook); forkAt
	// steers every repartition decision (SetForkAt). Neither survives
	// a Fork.
	retireHook func(now uint64, tid int, u *pipe.Uop)
	forkAt     func(*Machine, ForkPoint) int

	reg          *stats.Registry
	regionCycles map[int64]uint64

	watchdog *guard.Watchdog
	auditor  *guard.Auditor // nil when auditing is off
	ring     *guard.Ring    // last retired instructions, for diagnostic dumps
	retired  uint64         // retirements onRetire saw; the units' Retired must sum to it

	skipRetired uint64 // retiredTotal at the last skip attempt (quiescence gate)
	coordOwners []int  // coordinate's scratch for repartition owner lists

	// stage records where within the current cycle the run loop stands, so
	// a machine forked from inside a forkAt hook (mid-coordinate) resumes
	// exactly there instead of re-ticking the cycle. decisionSeq numbers
	// the repartition decisions applied so far; it advances whether or not
	// a hook is installed, so hooked and unhooked runs agree on every
	// ForkPoint.Index.
	stage       runStage
	decisionSeq int

	// regionCur/regionPend batch the per-cycle region census: cycles
	// accrue in regionPend while thread 0 stays in one region and flush
	// to the regionCycles map only on region change or read, keeping
	// the map write off the per-cycle path.
	regionCur  int64
	regionPend uint64
	regionIDs  []int64 // regions' scratch
}

// SetRetireHook installs (or, with nil, clears) the machine's
// retirement observer: f sees every retired instruction, in retirement
// order, with the cycle it retired in and its software thread. The uop
// is the arena's live slot, valid only during the call. f must not
// mutate the machine; a Fork does not carry it. vltrun's trace,
// pipeline view and Chrome trace are all written from this hook.
func (m *Machine) SetRetireHook(f func(now uint64, tid int, u *pipe.Uop)) { m.retireHook = f }

// NewMachine builds the machine described by cfg and loads prog with
// cfg.NumThreads software threads.
func NewMachine(cfg Config, prog *asm.Program) (*Machine, error) {
	cfg.MaxCycles = cmp.Or(cfg.MaxCycles, 2_000_000_000)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	machine, err := vm.New(prog, cfg.NumThreads)
	if err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:          cfg,
		vm:           machine,
		arena:        new(pipe.Arena),
		l2:           mem.NewL2(cfg.L2),
		region:       make([]int64, cfg.NumThreads),
		regionCycles: make(map[int64]uint64),
	}

	if cfg.Lanes > 0 && !cfg.LaneScalarMode {
		m.vu = vcl.New(cfg.VCL, m.arena, m.l2, cfg.Lanes)
		owners := make([]int, cfg.InitialPartitions)
		for i := range owners {
			owners[i] = i
		}
		if err := m.vu.Partition(owners); err != nil {
			return nil, err
		}
		m.vm.Partitions = cfg.InitialPartitions
	}

	m.locs = make([]location, cfg.NumThreads)
	if cfg.LaneScalarMode {
		for t := 0; t < cfg.NumThreads; t++ {
			c := lane.New(t, cfg.LaneCore, m.vm, m.arena, m.l2)
			c.AttachThread(t)
			tid := t
			c.OnRetire = func(u *pipe.Uop) { m.onRetire(tid, u) }
			m.lcs = append(m.lcs, c)
			m.locs[t] = location{onLane: true, unit: t}
		}
		m.initGuard()
		m.registerMetrics()
		return m, nil
	}

	next := 0
	for i, sc := range cfg.SUs {
		su := scalar.New(i, sc, m.vm, m.arena, m.l2, m.vectorSink())
		su.OnRetire = func(u *pipe.Uop) { m.onRetire(u.Thread, u) }
		m.sus = append(m.sus, su)
		for s := 0; s < sc.Contexts && next < cfg.NumThreads; s++ {
			su.AttachThread(s, next)
			m.locs[next] = location{unit: i, slot: s}
			next++
		}
	}
	m.initGuard()
	m.registerMetrics()
	return m, nil
}

// vectorSink returns the scalar units' vector dispatch target: the VCL,
// or a nil interface (not a nil *vcl.VCL) on a machine without one.
func (m *Machine) vectorSink() scalar.VectorSink {
	if m.vu == nil {
		return nil
	}
	return m.vu
}

// registerMetrics builds the machine's unified metric registry: every
// component registers its counters under a hierarchical prefix (su0.*,
// lane3.*, vcl.*, l2.*, vm.ops.*), plus machine-level aggregates derived
// from them. A Result is a snapshot of this registry.
func (m *Machine) registerMetrics() {
	m.reg = stats.New()
	mr := m.reg.Scope("machine")
	mr.CounterFn("cycles", func() uint64 { return m.now })
	mr.CounterFn("threads", func() uint64 { return uint64(m.cfg.NumThreads) })
	mr.CounterFn("retired", m.retiredTotal)
	mr.Gauge("ipc", func() float64 {
		if m.now == 0 {
			return 0
		}
		return float64(m.retiredTotal()) / float64(m.now)
	})
	mr.Gauge("opportunity_pct", func() float64 {
		if m.now == 0 {
			return 0
		}
		var opp uint64
		for _, region := range m.regions() {
			if region > 0 {
				opp += m.regionCycles[region]
			}
		}
		return 100 * float64(opp) / float64(m.now)
	})
	for i, su := range m.sus {
		su.RegisterMetrics(m.reg.Scope(fmt.Sprintf("su%d", i)))
	}
	for i, c := range m.lcs {
		c.RegisterMetrics(m.reg.Scope(fmt.Sprintf("lane%d", i)))
	}
	if m.vu != nil {
		m.vu.RegisterMetrics(m.reg.Scope("vcl"))
	}
	m.l2.RegisterMetrics(m.reg.Scope("l2"))
	m.vm.Stats.RegisterMetrics(m.reg.Scope("vm.ops"))
	m.registerGuardMetrics(m.reg.Scope("guard"))
}

// regions returns the region ids present in regionCycles in ascending
// order. Every iteration over the per-region cycle map goes through
// this helper so results never depend on Go's randomized map order. The
// slice is the machine's scratch, valid until the next call: the auditor
// walks it every audit, so it must not allocate.
func (m *Machine) regions() []int64 {
	m.flushRegion()
	ids := m.regionIDs[:0]
	for id := range m.regionCycles { //vltlint:ignore map-range — keys sorted before use
		ids = append(ids, id)
	}
	slices.Sort(ids)
	m.regionIDs = ids
	return ids
}

// Registry exposes the machine's metric registry. The registry is a
// live view — counters move while the machine runs; take a Snapshot for
// a consistent export. Callers must not register metrics on it: the set
// is fixed at construction, and the guard auditor fails the run if the
// registry grows mid-flight. For an independent copy, Fork the machine.
func (m *Machine) Registry() *stats.Registry { return m.reg }

// VM exposes the functional machine (for result verification). This is
// the machine's live architectural state, not a copy — mutating it
// mid-run corrupts the simulation. Fork the machine for an independent
// copy to inspect or perturb.
func (m *Machine) VM() *vm.VM { return m.vm }

// L2 exposes the shared cache (for statistics). Live internals, same
// contract as VM: read-only while the machine runs; Fork for a copy.
func (m *Machine) L2() *mem.L2 { return m.l2 }

// Now returns the machine's current cycle: the next cycle the run loop
// will execute (equivalently, the number of cycles fully simulated).
func (m *Machine) Now() uint64 { return m.now }

func (m *Machine) onRetire(tid int, u *pipe.Uop) {
	m.retired++
	m.ring.Push(m.now, tid, u.Dyn.PC)
	if u.Dyn.Inst.Op == isa.OpMark {
		m.region[tid] = u.Dyn.MarkID
	}
	if m.retireHook != nil {
		m.retireHook(m.now, tid, u)
	}
}

func (m *Machine) done() bool {
	for _, su := range m.sus {
		if !su.Done() {
			return false
		}
	}
	for _, c := range m.lcs {
		if !c.Done() {
			return false
		}
	}
	// Early-committed vector instructions may outlive the scalar
	// pipelines; the run ends when the vector unit drains too.
	return m.vu == nil || m.vu.InFlight() == 0
}

func (m *Machine) err() error {
	for _, su := range m.sus {
		if su.Err != nil {
			return su.Err
		}
	}
	for _, c := range m.lcs {
		if c.Err != nil {
			return c.Err
		}
	}
	return nil
}

// barrierUop returns thread t's waiting barrier uop, if its pipeline has
// one at the retire head, or 0.
func (m *Machine) barrierUop(t int) pipe.UopID {
	loc := m.locs[t]
	if loc.onLane {
		return m.lcs[loc.unit].BarrierWaiting()
	}
	return m.sus[loc.unit].BarrierWaiting(loc.slot)
}

func (m *Machine) threadHalted(t int) bool {
	return m.vm.Thread(t).Halted
}

// coordinate releases barriers once every live thread has arrived and
// applies pending VLTCFG repartition requests once the vector unit
// drains. A VLTCFG the vector unit refuses is a fault. Both wait on a
// BAR or VLTCFG that gates its thread's fetch, so while no front end is
// gated there is nothing to do.
func (m *Machine) coordinate(now uint64) error {
	if m.arena.Gated() == 0 {
		return nil
	}
	// Barriers: every non-halted thread must present a waiting BAR, with
	// its vector work drained (the barrier acts as a memory fence: early-
	// committed vector instructions must complete before it releases).
	arrived := 0
	live := 0
	for t := 0; t < m.cfg.NumThreads; t++ {
		bar := m.barrierUop(t)
		if m.threadHalted(t) && bar == 0 {
			continue
		}
		live++
		if bar != 0 && (m.vu == nil || m.vu.ThreadInFlight(t) == 0) {
			arrived++
		}
	}
	if live > 0 && arrived == live {
		for t := 0; t < m.cfg.NumThreads; t++ {
			if id := m.barrierUop(t); id != 0 {
				m.arena.Complete(id, now)
			}
		}
	}

	// VLT reconfiguration. This is the machine's only scheduling decision
	// point, so it doubles as the fork-point hook site: a forkAt hook sees
	// each repartition just before it is applied and may override the
	// requested partition count (Fork-ing the machine first to explore the
	// alternative it did not choose). The hook fires only once per
	// decision — an applied VLTCFG has its DoneCycle set, so re-running
	// coordinate on a forked machine re-presents only pending decisions.
	if m.vu == nil {
		return nil
	}
	for t := 0; t < m.cfg.NumThreads; t++ {
		loc := m.locs[t]
		if loc.onLane {
			continue
		}
		id := m.sus[loc.unit].VltCfgWaiting(loc.slot)
		if id == 0 {
			continue
		}
		u := m.arena.At(id)
		if m.vu.DrainCycle() > now {
			continue
		}
		req := u.Dyn.VltCfg
		n := req
		if hook := m.forkAt; hook != nil {
			pt := ForkPoint{Index: m.decisionSeq, Cycle: now, Thread: t, Requested: req}
			if c := hook(m, pt); c > 0 && m.validPartitionChoice(c) {
				n = c
			}
		}
		if cap(m.coordOwners) < n {
			m.coordOwners = make([]int, n)
		}
		owners := m.coordOwners[:n]
		for i := range owners {
			owners[i] = i
		}
		if err := m.vu.Partition(owners); err != nil {
			return fmt.Errorf("thread %d: vltcfg %d at pc %d: %w", t, n, u.Dyn.PC, err)
		}
		m.arena.Complete(id, now)
		m.decisionSeq++
		if n != req {
			// The functional machine applied the *requested* count when
			// it executed the VLTCFG; rewrite it now that the hook chose
			// otherwise. Fetch in thread t is blocked behind the VLTCFG
			// uop, so no later instruction of t has observed the
			// requested value yet.
			m.vm.Partitions = n
		}
	}
	return nil
}

// nextEventCycle computes the machine-wide event horizon after the
// cycle body at now has fully run (ticks plus coordination): the
// earliest future cycle at which any component could change state,
// clamped to every machine-level boundary whose per-cycle bookkeeping
// must observe exact cycle numbers — MaxCycles, the watchdog's stall
// deadline, the audit cadence and the vector unit's drain cycle while a
// repartition waits. A result of now+1 means no skip.
func (m *Machine) nextEventCycle(now uint64) uint64 {
	horizon := uint64(pipe.NeverDone)
	clamp := func(c uint64) {
		if c < horizon {
			horizon = c
		}
	}
	if m.vu != nil {
		clamp(m.vu.NextEvent(now))
	}
	for _, su := range m.sus {
		if horizon <= now+1 {
			return now + 1
		}
		clamp(su.NextEvent(now))
	}
	for _, c := range m.lcs {
		if horizon <= now+1 {
			return now + 1
		}
		clamp(c.NextEvent(now))
	}
	if horizon <= now+1 {
		return now + 1
	}
	clamp(m.l2.NextEvent(now))
	if m.vu != nil && m.repartitionPending() {
		horizon = pipe.EventAt(horizon, now, m.vu.DrainCycle())
	}
	// Machine-level deadlines. The watchdog and MaxCycles checks and the
	// auditor run only on woken cycles, so no jump may cross their next
	// boundary.
	clamp(m.cfg.MaxCycles)
	clamp(m.watchdog.Deadline())
	if m.auditor != nil {
		clamp(now - now%guard.AuditEvery + guard.AuditEvery)
	}
	if horizon < now+1 {
		horizon = now + 1
	}
	return horizon
}

// repartitionPending reports whether any thread has a VLTCFG waiting at
// its retire head — coordinate applies it the cycle the vector unit
// drains, so that cycle is an event.
func (m *Machine) repartitionPending() bool {
	if m.arena.Gated() == 0 {
		return false
	}
	for t := 0; t < m.cfg.NumThreads; t++ {
		loc := m.locs[t]
		if loc.onLane {
			continue
		}
		if m.sus[loc.unit].VltCfgWaiting(loc.slot) != 0 {
			return true
		}
	}
	return false
}

// creditRegion charges n cycles to region r, batching consecutive
// same-region credits in regionPend so the per-cycle path never
// touches the regionCycles map (flushRegion folds the batch in).
func (m *Machine) creditRegion(r int64, n uint64) {
	if r != m.regionCur {
		m.flushRegion()
		m.regionCur = r
	}
	m.regionPend += n
}

// flushRegion folds the pending region credit into the map; every
// reader of regionCycles goes through here first.
func (m *Machine) flushRegion() {
	if m.regionPend != 0 {
		m.regionCycles[m.regionCur] += m.regionPend
		m.regionPend = 0
	}
}

// skipTo bulk-credits the per-cycle bookkeeping of the skipped
// quiescent cycles [from, to): the region census charges thread 0's
// current region once per cycle, and every component replays its own
// idle accounting, so all exported metrics are byte-identical to a
// ticked run.
func (m *Machine) skipTo(from, to uint64) {
	m.creditRegion(m.region[0], to-from)
	if m.vu != nil {
		m.vu.SkipIdle(from, to)
	}
	for _, su := range m.sus {
		su.SkipIdle(from, to)
	}
	for _, c := range m.lcs {
		c.SkipIdle(from, to)
	}
}

// runStage marks where within the current cycle the run loop stands.
// The loop body is split at the coordinate step: a Fork taken from
// inside a forkAt hook (which fires during coordinate) leaves the clone
// in stageCoord, so its resumed run re-enters at coordinate — which is
// idempotent over already-applied decisions — instead of re-ticking the
// components for a cycle they already executed.
type runStage uint8

const (
	stageTick  runStage = iota // next: guards, component ticks
	stageCoord                 // ticked; next: coordinate and the cycle tail
)

// RunUntil simulates until the machine is done or the current cycle
// reaches stop, whichever comes first (so RunUntil(c) on a fresh
// machine executes cycles [0, c)). It may be called repeatedly; Fork a
// machine mid-run to branch the simulation. Event-driven cycle
// skipping never jumps past stop, so the registry read after
// RunUntil(c+1) holds exactly the counts at the end of cycle c: a
// caller stepping through the run reads a time series that way.
func (m *Machine) RunUntil(stop uint64) error {
	for !m.done() {
		if m.now >= stop {
			return nil
		}
		now := m.now
		if m.stage == stageTick {
			if now >= m.cfg.MaxCycles {
				return m.stallError("max-cycles", now, m.cfg.MaxCycles)
			}
			if m.watchdog.Observe(now, m.retiredTotal()) {
				return m.stallError("livelock", now, m.watchdog.Limit())
			}
			if m.vu != nil {
				m.vu.Tick(now)
			}
			for _, su := range m.sus {
				su.Tick(now)
			}
			for _, c := range m.lcs {
				c.Tick(now)
			}
			if err := m.err(); err != nil {
				return fmt.Errorf("core: %s: cycle %d: %w", m.cfg.Name, now, err)
			}
			m.stage = stageCoord
		}
		if err := m.coordinate(now); err != nil {
			return fmt.Errorf("core: %s: cycle %d: %w", m.cfg.Name, now, err)
		}
		m.creditRegion(m.region[0], 1)
		if m.auditor != nil {
			if aerr := m.auditor.Check(now); aerr != nil {
				aerr.Config = m.cfg.Name
				aerr.Dump = m.dump(now)
				return aerr
			}
		}
		// Event-driven advance (DESIGN.md §11): when every component
		// agrees nothing can change state before some future cycle, jump
		// there in one step, bulk-crediting the skipped quiescent span's
		// per-cycle bookkeeping.
		next := now + 1
		if !m.cfg.NoSkip {
			// Computing the jump target is a full component scan —
			// pure overhead on busy cycles, where the next event is
			// now+1 anyway. A cycle that retired instructions is busy,
			// so only quiescent cycles (no retirement anywhere since
			// the last attempt) look for a jump; an idle span starts
			// paying the scan from its first fully quiet cycle.
			if retired := m.retiredTotal(); retired != m.skipRetired {
				m.skipRetired = retired
			} else if target := m.nextEventCycle(now); target > next && !m.done() {
				if target > stop {
					target = stop // a skip must not jump past the caller's stop cycle
				}
				if target > next {
					m.skipTo(next, target)
					next = target
				}
			}
		}
		m.now = next
		m.stage = stageTick
	}
	return nil
}

// Run simulates to completion and returns the result: the headline
// counts and a snapshot of the metric registry, the single source of
// truth for every export.
func (m *Machine) Run() (Result, error) {
	if err := m.RunUntil(pipe.NeverDone); err != nil {
		return Result{}, err
	}
	return Result{
		Config:  m.cfg.Name,
		Cycles:  m.now,
		Retired: m.retiredTotal(),
		metrics: m.reg.Snapshot(),
	}, nil
}

// Release hands the machine's cache tag arrays back to internal/mem's
// pool, where the next machine built (or forked) draws them instead of
// allocating 1 MB of L2 tags afresh. Call it once the run's results are
// read; Result, its metrics and the functional VM stay valid, but the
// machine must not run or fork again (a cache access then panics).
// Release is idempotent, and a machine nobody releases is simply
// garbage-collected.
func (m *Machine) Release() {
	m.l2.Cache().Release()
	for _, su := range m.sus {
		su.ICache().Cache().Release()
		su.DCache().Cache().Release()
	}
	for _, c := range m.lcs {
		c.ICache().Cache().Release()
	}
}
