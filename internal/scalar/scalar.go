package scalar

import (
	"fmt"

	"vlt/internal/isa"
	"vlt/internal/mem"
	"vlt/internal/pipe"
	"vlt/internal/stats"
	"vlt/internal/vm"
)

// VectorSink accepts vector uops at dispatch (implemented by vcl.VCL,
// which shares the unit's arena). Dispatch asks PeekEnqueue first and
// enqueues only what it accepts.
type VectorSink interface {
	Enqueue(pipe.UopID) bool
	// PeekEnqueue reports whether Enqueue would accept the uop (ok)
	// and, when it would not, whether the refusal would be counted as a
	// VIQ rejection (counted). It must not change any state.
	PeekEnqueue(pipe.UopID) (ok, counted bool)
	// CreditRejects records n counted VIQ rejections: one for each
	// cycle dispatch finds its vector head refused, ticked or skipped.
	CreditRejects(n uint64)
}

// Config parameterizes one scalar unit.
type Config struct {
	Width             int // fetch/dispatch/issue/retire width
	WindowSize        int // scheduler window entries
	ROBSize           int // reorder buffer entries (split across contexts)
	NumALU            int // arithmetic units
	NumMemPorts       int // data-cache ports
	Contexts          int // SMT contexts (1 = single-threaded)
	MispredictPenalty int // redirect cycles after branch resolution
	PredictorEntries  int
	L1I, L1D          mem.L1Config
}

// Config4Way returns the paper's base 4-way SU.
func Config4Way() Config {
	return Config{
		Width: 4, WindowSize: 64, ROBSize: 64, NumALU: 4, NumMemPorts: 2,
		Contexts: 1, MispredictPenalty: 3, PredictorEntries: 4096,
		L1I: mem.DefaultL1Config(), L1D: mem.DefaultL1Config(),
	}
}

// Config2Way returns the paper's half-resource 2-way SU (identical caches,
// half of everything else).
func Config2Way() Config {
	c := Config4Way()
	c.Width, c.WindowSize, c.ROBSize, c.NumALU, c.NumMemPorts = 2, 32, 32, 2, 1
	return c
}

// WithSMT returns the config with n SMT contexts (the paper's 2-way or
// 4-way multithreading within a scalar processor).
func (c Config) WithSMT(n int) Config {
	c.Contexts = n
	return c
}

type context struct {
	slot   int
	tid    int // software thread id, -1 when the context is unused
	active bool

	fetchQ pipe.Ring
	rob    pipe.Ring
	robCap int

	fe pipe.Frontend
}

func (c *context) done() bool {
	return !c.active || (c.fe.Halted() && c.rob.Len() == 0 && c.fetchQ.Len() == 0)
}

func (c *context) inflight() int { return c.rob.Len() + c.fetchQ.Len() }

// Unit is one scalar unit instance.
type Unit struct {
	ID  int
	cfg Config

	vmach  *vm.VM
	arena  *pipe.Arena // the machine's uops
	icache *mem.L1
	dcache *mem.L1
	pred   *pipe.Bimodal
	vsink  VectorSink

	ctxs   []*context
	window []pipe.UopID // unissued scalar uops, age order across contexts

	fetchRR  int
	retireRR int

	// Hot-path scratch buffers, reused across cycles.
	fetchReady []*context // fetch's per-cycle fetchable-context list

	// OnRetire, if set, is called for every retired uop (the machine
	// model uses it for region tracking and completion accounting).
	OnRetire func(*pipe.Uop)

	// Err records a functional-simulator fault; the machine stops.
	Err error

	Fetched     uint64
	Dispatched  uint64
	IssuedCount uint64
	Retired     uint64

	FetchStallBranch uint64
	FetchStallICache uint64
	DispStallROB     uint64
	DispStallWindow  uint64
	DispStallVIQ     uint64
}

// New builds a scalar unit drawing its uops from arena, over the shared
// L2. vsink may be nil for a CMP/CMT configuration without a vector
// unit.
func New(id int, cfg Config, machine *vm.VM, arena *pipe.Arena, l2 *mem.L2, vsink VectorSink) *Unit {
	u := &Unit{
		ID:     id,
		cfg:    cfg,
		vmach:  machine,
		arena:  arena,
		icache: mem.NewL1(cfg.L1I, l2),
		dcache: mem.NewL1(cfg.L1D, l2),
		pred:   pipe.NewBimodal(cfg.PredictorEntries),
		vsink:  vsink,
	}
	// SMT contexts share the reorder buffer dynamically: each context may
	// use up to 3/4 of the entries, with the global total capped at
	// ROBSize (no context can starve completely).
	robCap := cfg.ROBSize
	if cfg.Contexts > 1 {
		robCap = cfg.ROBSize * 3 / 4
	}
	for s := 0; s < cfg.Contexts; s++ {
		u.ctxs = append(u.ctxs, &context{
			slot: s, tid: -1, robCap: robCap,
			// fetchQ is capped at 2*Width before a fetch of up to Width more.
			fetchQ: pipe.NewRing(3 * cfg.Width),
			rob:    pipe.NewRing(robCap),
		})
	}
	u.window = make([]pipe.UopID, 0, cfg.WindowSize)
	u.fetchReady = make([]*context, 0, cfg.Contexts)
	return u
}

func (u *Unit) robTotal() int {
	n := 0
	for _, c := range u.ctxs {
		n += c.rob.Len()
	}
	return n
}

// Config returns the unit's configuration.
func (u *Unit) Config() Config { return u.cfg }

// ICache exposes the instruction cache (statistics).
func (u *Unit) ICache() *mem.L1 { return u.icache }

// DCache exposes the data cache (statistics).
func (u *Unit) DCache() *mem.L1 { return u.dcache }

// Predictor exposes the branch predictor (statistics).
func (u *Unit) Predictor() *pipe.Bimodal { return u.pred }

// RegisterMetrics registers every pipeline counter on r (scoped to
// "su<ID>" by the machine model). The counters remain the plain uint64
// fields the pipeline stages already increment; the registry reads them
// only at snapshot time, so the hot path is unchanged.
func (u *Unit) RegisterMetrics(r *stats.Registry) {
	r.Counter("fetch.instrs", &u.Fetched)
	r.Counter("fetch.stall.branch", &u.FetchStallBranch)
	r.Counter("fetch.stall.icache", &u.FetchStallICache)
	r.Counter("dispatch.instrs", &u.Dispatched)
	r.Counter("dispatch.stall.rob", &u.DispStallROB)
	r.Counter("dispatch.stall.window", &u.DispStallWindow)
	r.Counter("dispatch.stall.viq", &u.DispStallVIQ)
	r.Counter("issue.instrs", &u.IssuedCount)
	r.Counter("retire.instrs", &u.Retired)
	r.Counter("bpred.lookups", &u.pred.Lookups)
	r.Counter("bpred.mispredicts", &u.pred.Mispredicts)
	r.Gauge("bpred.mispredict_pct", func() float64 { return 100 * u.pred.MispredictRate() })
	u.icache.RegisterMetrics(r.Scope("l1i"))
	u.dcache.RegisterMetrics(r.Scope("l1d"))
}

// AttachThread binds software thread tid to SMT context slot.
func (u *Unit) AttachThread(slot, tid int) {
	c := u.ctxs[slot]
	c.tid = tid
	c.active = true
}

// Done reports whether every attached thread has fully drained.
func (u *Unit) Done() bool {
	for _, c := range u.ctxs {
		if !c.done() {
			return false
		}
	}
	return true
}

// BarrierWaiting returns, per context, the BAR uop currently at the head
// of the reorder buffer and not yet released, or nil.
func (u *Unit) BarrierWaiting(slot int) *pipe.Uop {
	if id := u.ctxs[slot].rob.Front(); id != 0 {
		if h := u.arena.At(id); h.Dyn.IsBarrier && h.DoneCycle == pipe.NeverDone {
			return h
		}
	}
	return nil
}

// VltCfgWaiting returns the VLTCFG uop at the head of the context's ROB
// that has not been applied yet, or nil.
func (u *Unit) VltCfgWaiting(slot int) *pipe.Uop {
	if id := u.ctxs[slot].rob.Front(); id != 0 {
		if h := u.arena.At(id); h.Dyn.VltCfg != 0 && h.DoneCycle == pipe.NeverDone {
			return h
		}
	}
	return nil
}

// Tick advances the unit one cycle: retire, issue, dispatch, fetch.
func (u *Unit) Tick(now uint64) {
	if u.Err != nil {
		return
	}
	u.retire(now)
	u.issue(now)
	u.dispatch(now)
	u.fetch(now)
}

// retire commits completed instructions in order, up to Width per cycle,
// round-robin across contexts.
func (u *Unit) retire(now uint64) {
	budget := u.cfg.Width
	n := len(u.ctxs)
	for i := 0; i < n && budget > 0; i++ {
		c := u.ctxs[(u.retireRR+i)%n]
		for budget > 0 && c.rob.Len() > 0 {
			id := c.rob.Front()
			h := u.arena.At(id)
			if h.RetireCycle() > now {
				break
			}
			c.rob.Pop()
			u.Retired++
			budget--
			if u.OnRetire != nil {
				u.OnRetire(h)
			}
			c.fe.Unpin(u.arena, id, now)
			if h.CommitCycle == pipe.NeverDone {
				// A plain scalar uop (vector uops carry a CommitCycle
				// from early commit, and the VCL still reads their
				// dependence edges for chaining): nothing reads this
				// uop's edges again, so break the producer chain.
				u.arena.ReleaseProducers(id)
			}
			// Retirement is a free point: it recycles h once nothing
			// else holds it (a vector uop the VCL already completed has
			// no later chance), so it must be the last use of h.
			u.arena.Retire(id)
		}
	}
	u.retireRR++
}

// issue selects ready instructions from the window, oldest first, bounded
// by issue width, ALU count and memory ports.
func (u *Unit) issue(now uint64) {
	issued, aluUsed, memUsed := 0, 0, 0
	kept := u.window[:0]
	for idx, id := range u.window {
		if issued >= u.cfg.Width {
			kept = append(kept, u.window[idx:]...)
			break
		}
		w := u.arena.At(id)
		if u.arena.ReadyCycle(w, now) > now {
			kept = append(kept, id)
			continue
		}
		info := w.Dyn.Inst.Op.Info()
		switch info.Class {
		case isa.ClassLoad, isa.ClassStore:
			if memUsed >= u.cfg.NumMemPorts {
				kept = append(kept, id)
				continue
			}
			memUsed++
			addr := w.Dyn.EffAddrs[0]
			done := u.dcache.Access(now, addr, info.Class == isa.ClassStore)
			if info.Class == isa.ClassStore {
				// Stores drain through the store buffer: they retire once
				// issued; the cache update completes asynchronously.
				done = now + 1
			}
			w.DoneCycle = done
		default: // IntALU, IntMul, FP, Ctl(SETVL)
			if aluUsed >= u.cfg.NumALU {
				kept = append(kept, id)
				continue
			}
			aluUsed++
			w.DoneCycle = now + uint64(info.Latency)
		}
		w.Issued = true
		w.IssueCycle = now
		w.ChainCycle = w.DoneCycle
		issued++
		u.IssuedCount++
	}
	u.window = kept
}

// dispatchStall is what holds a context's fetch-queue head at dispatch.
type dispatchStall uint8

const (
	stallNone   dispatchStall = iota // the head dispatches this cycle
	stallROB                         // ROB full: the scan moves to the next context
	stallWindow                      // scheduler window full: the scan ends
	stallVIQ                         // vector unit refuses it: the scan ends
)

// headStall classifies head, the front of context c's fetch queue, at
// dispatch: whether it moves this cycle and, if not, which structure
// holds it. counted reports that a VIQ refusal counts as a vector unit
// reject. A control uop needs no window entry and always moves once the
// ROB has room; a vector uop with no vector unit moves too, and dispatch
// faults on it. dispatch, NextEvent and SkipIdle all ask this one rule.
func (u *Unit) headStall(c *context, head pipe.UopID) (s dispatchStall, counted bool) {
	if c.rob.Len() >= c.robCap || u.robTotal() >= u.cfg.ROBSize {
		return stallROB, false
	}
	info := u.arena.At(head).Dyn.Inst.Op.Info()
	switch {
	case info.Vector:
		if u.vsink != nil {
			if ok, counted := u.vsink.PeekEnqueue(head); !ok {
				return stallVIQ, counted
			}
		}
	case info.Sequencing: // needs no window entry
	default:
		if len(u.window) >= u.cfg.WindowSize {
			return stallWindow, false
		}
	}
	return stallNone, false
}

// chargeStall charges n cycles of dispatch stall s to its counter and,
// for a counted VIQ refusal, n rejects to the vector unit.
func (u *Unit) chargeStall(s dispatchStall, counted bool, n uint64) {
	switch s {
	case stallROB:
		u.DispStallROB += n
	case stallWindow:
		u.DispStallWindow += n
	case stallVIQ:
		u.DispStallVIQ += n
		if counted {
			u.vsink.CreditRejects(n)
		}
	}
}

// dispatch moves fetched instructions into the ROB (and window or vector
// queue), in order per context, up to Width per cycle.
func (u *Unit) dispatch(now uint64) {
	budget := u.cfg.Width
	n := len(u.ctxs)
	for i := 0; i < n && budget > 0; i++ {
		c := u.ctxs[(u.retireRR+i)%n]
		for budget > 0 && c.fetchQ.Len() > 0 {
			id := c.fetchQ.Front()
			uop := u.arena.At(id)
			stall, counted := u.headStall(c, id)
			if stall == stallROB {
				u.chargeStall(stall, counted, 1)
				break
			}
			info := uop.Dyn.Inst.Op.Info()
			if info.Vector {
				if u.vsink == nil {
					u.Err = fmt.Errorf("scalar: vector instruction %s with no vector unit (thread %d)",
						uop.Dyn.Inst, uop.Thread)
					return
				}
				if !uop.ScalarsCollected { // a VIQ-full retry keeps the first capture
					c.fe.Producers(u.arena, &uop.ScalarProducers, uop, now)
					uop.ScalarsCollected = true
				}
			}
			if stall != stallNone {
				u.chargeStall(stall, counted, 1)
				budget = 0
				break
			}
			switch {
			case info.Vector:
				u.vsink.Enqueue(id) // accepted: headStall peeked
				c.fe.Record(u.arena, id)
			case info.Sequencing:
				// NOP/MARK/HALT complete immediately; BAR and VLTCFG
				// wait for the machine-level controller.
				if uop.Dyn.IsBarrier || uop.Dyn.VltCfg != 0 {
					uop.DoneCycle = pipe.NeverDone
				} else {
					uop.DoneCycle = now
					uop.ChainCycle = now
				}
			default:
				c.fe.Producers(u.arena, &uop.Producers, uop, now)
				c.fe.Record(u.arena, id)
				u.window = append(u.window, id)
			}
			uop.DispatchCycle = now
			c.rob.Push(c.fetchQ.Pop())
			u.Dispatched++
			budget--
		}
	}
}

// fetchable reports whether context c may fetch at all this cycle: it
// runs a thread and its fetch queue has room for another fetch group.
// fetch, NextEvent and SkipIdle all ask this one rule before the gates.
func (u *Unit) fetchable(c *context) bool {
	return c.active && c.fetchQ.Len() < 2*u.cfg.Width
}

// fetch pulls up to Width instructions per cycle, splitting the fetch
// bandwidth across all fetchable SMT contexts (2+2 for two contexts on a
// 4-wide unit, 1 each for four), honoring instruction-cache misses,
// branch mispredictions, barriers and halt.
func (u *Unit) fetch(now uint64) {
	n := len(u.ctxs)
	ready := u.fetchReady[:0]
	for i := 0; i < n; i++ {
		c := u.ctxs[(u.fetchRR+i)%n]
		if !u.fetchable(c) {
			continue
		}
		open, branch := c.fe.Gate(u.arena, now, u.cfg.MispredictPenalty)
		if branch {
			u.FetchStallBranch++
		}
		if open {
			ready = append(ready, c)
		}
	}
	u.fetchRR++
	if len(ready) == 0 {
		return
	}
	// ICOUNT-style priority: contexts with fewer instructions in flight
	// fetch first, so no thread starves and stalled threads do not hog
	// the front end.
	for i := 1; i < len(ready); i++ {
		for j := i; j > 0; j-- {
			if ready[j].inflight() < ready[j-1].inflight() {
				ready[j], ready[j-1] = ready[j-1], ready[j]
			} else {
				break
			}
		}
	}
	budget := u.cfg.Width
	for _, c := range ready {
		if budget <= 0 {
			break
		}
		budget -= u.fetchFrom(c, now, budget)
	}
}

// fetchFrom fetches up to width instructions from context c and reports
// how many fetch slots it consumed.
func (u *Unit) fetchFrom(c *context, now uint64, width int) int {
	for i := 0; i < width; i++ {
		id, more, err := c.fe.Fetch(u.arena, now, u.vmach, c.tid, u.icache, 0, u.pred)
		if id == 0 {
			if err != nil {
				u.Err = err
			} else {
				u.FetchStallICache++
			}
			return i
		}
		c.fetchQ.Push(id)
		u.Fetched++
		if !more {
			return i + 1
		}
	}
	return width
}
