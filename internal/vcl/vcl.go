package vcl

import (
	"fmt"
	"slices"

	"vlt/internal/isa"
	"vlt/internal/mem"
	"vlt/internal/pipe"
	"vlt/internal/stats"
)

// NumVFUs is the number of arithmetic datapaths per lane.
const NumVFUs = 3

// NumMemPorts is the number of memory ports per lane.
const NumMemPorts = 2

// Config parameterizes the vector control logic (paper Table 3).
type Config struct {
	IssueWidth int // vector instructions issued per cycle, total
	VIQSize    int // vector instruction queue entries, total
	WindowSize int // vector instruction window entries, total
	PhysRegs   int // physical vector registers per partition

	// DisableChaining makes consumers wait for a producer's full
	// completion instead of its first element group (ablation study).
	DisableChaining bool

	// ReplicatedIssue models a fully replicated VCL: every partition gets
	// its own IssueWidth slots instead of sharing them (the expensive
	// design point the paper compared its multiplexed VCL against).
	ReplicatedIssue bool
}

// DefaultConfig returns the paper's Table 3 VCL parameters.
func DefaultConfig() Config {
	return Config{IssueWidth: 2, VIQSize: 32, WindowSize: 32, PhysRegs: 64}
}

// Utilization is the Figure-4 datapath-cycle breakdown for the arithmetic
// datapaths in the vector lanes (3 per lane).
type Utilization struct {
	Busy     uint64 // datapath executing an element operation
	PartIdle uint64 // datapath idle within an executing instruction (VL < lanes)
	Stalled  uint64 // FU idle while a vector instruction is pending (deps / issue bandwidth)
	AllIdle  uint64 // no vector instruction at all for this FU
}

// Total returns the sum of all categories.
func (u Utilization) Total() uint64 { return u.Busy + u.PartIdle + u.Stalled + u.AllIdle }

type vecExec struct {
	issue uint64
	vl    int
}

type partition struct {
	id     int
	thread int // software thread id owning this partition, -1 if none
	lanes  int

	viqCap int
	winCap int
	viq    pipe.Ring
	win    []pipe.UopID

	lastWriter [isa.NumVecRegs]pipe.UopID
	renames    int // vector destinations in flight
	renameCap  int
	noChain    bool

	vfuFree [NumVFUs]uint64
	vfuCur  [NumVFUs]vecExec
	memFree [NumMemPorts]uint64

	// pending counts the unissued VecALU uops in the VIQ and window per
	// arithmetic datapath (census asks pendingFor); unissued counts the
	// window's unissued entries, so issue and NextEvent need not walk a
	// window whose every entry has issued; doneMin is at most the
	// DoneCycle of every issued window entry, so retireDone has nothing
	// to retire before it.
	pending  [NumVFUs]int
	unissued int
	doneMin  uint64
}

// VCL is the vector control logic shared by all thread partitions. Its
// queues hold handles into the machine's uop arena, which the scalar
// units that dispatch to it share.
type VCL struct {
	cfg        Config
	arena      *pipe.Arena
	l2         *mem.L2
	totalLanes int
	parts      []*partition
	rr         int // the partition issue starts at, in [0, len(parts))

	Util Utilization

	VecIssued  uint64
	VecElemOps uint64
	// VIQRejects counts offers refused for lack of VIQ space, by Enqueue
	// or credited by a dispatch that peeked (CreditRejects) —
	// back-pressure into the scalar unit's dispatch stage.
	VIQRejects uint64

	// Enqueued and Completed count vector instructions accepted into and
	// retired out of the VCL; Enqueued == Completed + InFlight() is the
	// occupancy invariant the guard auditor checks.
	Enqueued  uint64
	Completed uint64
}

// New builds a VCL controlling totalLanes lanes over arena's uops,
// initially configured as a single partition owned by software thread 0.
func New(cfg Config, arena *pipe.Arena, l2 *mem.L2, totalLanes int) *VCL {
	v := &VCL{cfg: cfg, arena: arena, l2: l2, totalLanes: totalLanes}
	if err := v.Partition([]int{0}); err != nil {
		panic(err)
	}
	return v
}

// RegisterMetrics registers the vector unit's counters on r (scoped to
// "vcl" by the machine model): the Figure-4 datapath census, the issue
// counters and back-pressure, plus derived occupancy gauges suited to
// the time-series sampler.
func (v *VCL) RegisterMetrics(r *stats.Registry) {
	r.Counter("util.busy", &v.Util.Busy)
	r.Counter("util.part_idle", &v.Util.PartIdle)
	r.Counter("util.stalled", &v.Util.Stalled)
	r.Counter("util.all_idle", &v.Util.AllIdle)
	r.Gauge("util.busy_pct", func() float64 {
		total := v.Util.Total()
		if total == 0 {
			return 0
		}
		return 100 * float64(v.Util.Busy) / float64(total)
	})
	r.Counter("issued", &v.VecIssued)
	r.Counter("elem_ops", &v.VecElemOps)
	r.Counter("viq_rejects", &v.VIQRejects)
	r.Counter("enqueued", &v.Enqueued)
	r.Counter("completed", &v.Completed)
	r.CounterFn("lanes", func() uint64 { return uint64(v.totalLanes) })
	r.CounterFn("partitions", func() uint64 { return uint64(len(v.parts)) })
	r.CounterFn("in_flight", func() uint64 { return uint64(v.InFlight()) })
}

// Lanes returns the total lane count.
func (v *VCL) Lanes() int { return v.totalLanes }

// NumPartitions returns the current partition count.
func (v *VCL) NumPartitions() int { return len(v.parts) }

// LanesFor returns the number of lanes in thread tid's partition (0 if the
// thread owns none).
func (v *VCL) LanesFor(tid int) int {
	if p := v.partitionOf(tid); p != nil {
		return p.lanes
	}
	return 0
}

// CheckPartitions is the one rule for partition counts: it reports why
// a vector unit of lanes lanes under cfg cannot be split into n equal
// partitions, or nil if it can. Each partition needs an equal share of
// the lanes, at least one, and at least one VIQ and one window entry of
// its equal shares of those. The vector length needs no rule: a
// partition's maximum is isa.MaxVL / n, rounded down, and kernels
// strip-mine for whatever it is.
func CheckPartitions(cfg Config, lanes, n int) error {
	switch {
	case n < 1 || lanes%n != 0:
		return fmt.Errorf("vcl: cannot split %d lanes into %d partitions", lanes, n)
	case cfg.VIQSize/n < 1:
		return fmt.Errorf("vcl: %d partitions leave no VIQ entry (VIQSize %d)", n, cfg.VIQSize)
	case cfg.WindowSize/n < 1:
		return fmt.Errorf("vcl: %d partitions leave no window entry (WindowSize %d)", n, cfg.WindowSize)
	}
	return nil
}

// Partition reconfigures the lanes into len(threads) equal partitions,
// partition i owned by software thread threads[i]. The vector unit must be
// drained; vector register contents are considered dead across
// repartitioning (the paper's software requirement).
func (v *VCL) Partition(threads []int) error {
	n := len(threads)
	if err := CheckPartitions(v.cfg, v.totalLanes, n); err != nil {
		return err
	}
	if v.parts != nil && v.InFlight() != 0 {
		return fmt.Errorf("vcl: repartition while %d instructions in flight", v.InFlight())
	}
	lanes := v.totalLanes / n
	viqCap := v.cfg.VIQSize / n
	winCap := v.cfg.WindowSize / n
	v.parts = make([]*partition, n)
	for i, tid := range threads {
		v.parts[i] = &partition{
			id:        i,
			thread:    tid,
			lanes:     lanes,
			viqCap:    viqCap,
			winCap:    winCap,
			renameCap: v.cfg.PhysRegs - isa.NumVecRegs,
			noChain:   v.cfg.DisableChaining,
			viq:       pipe.NewRing(viqCap),
			win:       make([]pipe.UopID, 0, winCap),
			doneMin:   pipe.NeverDone,
		}
	}
	v.rr = 0
	return nil
}

func (v *VCL) partitionOf(tid int) *partition {
	for _, p := range v.parts {
		if p.thread == tid {
			return p
		}
	}
	return nil
}

// Enqueue offers a vector uop from a scalar unit's dispatch stage,
// reporting whether the VIQ accepted it.
func (v *VCL) Enqueue(id pipe.UopID) bool {
	p := v.partitionOf(v.arena.At(id).Thread)
	if p == nil {
		return false
	}
	if p.viq.Len() >= p.viqCap {
		v.VIQRejects++
		return false
	}
	p.viq.Push(id)
	if info := v.arena.At(id).Dyn.Inst.Op.Info(); info.Class == isa.ClassVecALU {
		p.pending[info.VFU]++
	}
	v.Enqueued++
	return true
}

// ThreadInFlight returns the number of vector instructions of thread tid
// still in the VIQ or window. With early commit a thread's barrier must
// wait for this to reach zero (a memory-fence at the barrier).
func (v *VCL) ThreadInFlight(tid int) int {
	p := v.partitionOf(tid)
	if p == nil {
		return 0
	}
	return p.viq.Len() + len(p.win)
}

// InFlight returns the number of vector instructions in the VIQ or window.
func (v *VCL) InFlight() int {
	n := 0
	for _, p := range v.parts {
		n += p.viq.Len() + len(p.win)
	}
	return n
}

// Tick advances the VCL by one cycle: retires completed window entries,
// renames/dispatches from the VIQ into the window, issues ready
// instructions to the lane datapaths, and accounts datapath utilization
// for this cycle.
func (v *VCL) Tick(now uint64) {
	for _, p := range v.parts {
		v.Completed += uint64(p.retireDone(v.arena, now))
		p.dispatch(v.arena, now, v.cfg.IssueWidth)
	}
	v.issue(now)
	v.census(now, now+1)
}

// retireDone removes completed instructions from the window, releasing
// their implicit renames, and returns how many it retired. Before
// doneMin no issued entry is done, so it has nothing to scan.
func (p *partition) retireDone(a *pipe.Arena, now uint64) int {
	if now < p.doneMin {
		return 0
	}
	retired := 0
	p.doneMin = pipe.NeverDone
	dst := p.win[:0]
	for _, id := range p.win {
		u := a.At(id)
		if u.Issued && u.DoneBy(now) {
			if hasVecDest(u) {
				p.renames--
				// Unpin the uop from chain tracking: it is done, so any
				// later consumer chains from the register file anyway.
				if rd := u.Dyn.Inst.Rd.Index(); p.lastWriter[rd] == id {
					p.lastWriter[rd] = 0
					a.Release(id)
				}
			}
			// No stage reads this uop's edges again: break the producer
			// chain. This may recycle it, so it must be the last use.
			a.ReleaseProducers(id)
			retired++
			continue
		}
		if u.Issued {
			p.doneMin = min(p.doneMin, u.DoneCycle)
		}
		dst = append(dst, id)
	}
	p.win = dst
	return retired
}

func hasVecDest(u *pipe.Uop) bool {
	in := u.Dyn.Inst
	return in.Rd != isa.RegNone && in.Rd.IsVec() && len(in.Op.Info().Writes) > 0
}

// dispatch renames up to width instructions from the VIQ into the window.
func (p *partition) dispatch(a *pipe.Arena, now uint64, width int) {
	for n := 0; n < width && p.viq.Len() > 0; n++ {
		if len(p.win) >= p.winCap {
			return
		}
		id := p.viq.Front()
		u := a.At(id)
		needsRename := hasVecDest(u)
		if needsRename && p.renames >= p.renameCap {
			return // out of physical registers
		}
		p.viq.Pop()
		if needsRename {
			p.renames++
		}
		// Vector-register producers (chaining sources).
		var srcs [pipe.MaxSrcs]isa.Reg
		for _, r := range u.Dyn.Inst.AppendSrcs(srcs[:0]) {
			if r.IsVec() {
				if w := p.lastWriter[r.Index()]; w != 0 {
					a.Retain(w)
					u.Producers.Add(w)
				}
			}
		}
		if needsRename {
			rd := u.Dyn.Inst.Rd.Index()
			if old := p.lastWriter[rd]; old != 0 {
				a.Release(old)
			}
			a.Retain(id)
			p.lastWriter[rd] = id
		}
		u.DispatchCycle = now
		p.win = append(p.win, id)
		p.unissued++
	}
}

// readyCycle returns the first cycle at which u may issue, provided it
// is no later than bound: the latest of its scalar producers'
// completions, its vector producers' chain (or, without chaining,
// completion) cycles, and the cycle its functional unit frees (for a
// memory instruction, the first port to free). As with
// pipe.Arena.ReadyCycle, a later cycle is not computed in full: the
// first term past bound is returned, pipe.NeverDone for a producer whose
// completion is still unknown. issue asks readyCycle(a, u, now) <= now
// and NextEvent folds in readyCycle(a, u, ev).
func (p *partition) readyCycle(a *pipe.Arena, u *pipe.Uop, bound uint64) uint64 {
	var r uint64
	for _, sp := range u.ScalarProducers.IDs() {
		if r = max(r, a.At(sp).DoneCycle); r > bound {
			return r
		}
	}
	for _, id := range u.Producers.IDs() {
		vp := a.At(id)
		ready := vp.ChainCycle
		if p.noChain {
			ready = vp.DoneCycle
		}
		if r = max(r, ready); r > bound {
			return r
		}
	}
	info := u.Dyn.Inst.Op.Info()
	switch info.Class {
	case isa.ClassVecALU:
		r = max(r, p.vfuFree[info.VFU])
	case isa.ClassVecLoad, isa.ClassVecStore:
		r = max(r, slices.Min(p.memFree[:]))
	}
	return r
}

func (p *partition) nextIssuable(a *pipe.Arena, now uint64) pipe.UopID {
	if p.unissued == 0 {
		return 0
	}
	for _, id := range p.win {
		if u := a.At(id); !u.Issued && p.readyCycle(a, u, now) <= now {
			return id
		}
	}
	return 0
}

// issue grants the VCL's issue slots across partitions round-robin. A
// single partition may consume all slots; with multiple partitions each
// gets at most one slot per cycle (static partitioning of issue
// bandwidth). With ReplicatedIssue every partition gets the full width
// (a fully replicated VCL).
func (v *VCL) issue(now uint64) {
	width := v.cfg.IssueWidth
	n := len(v.parts)
	next := v.rr
	if v.rr++; v.rr == n { // once per cycle, ticked or skipped (SkipIdle)
		v.rr = 0
	}
	if v.cfg.ReplicatedIssue {
		for _, p := range v.parts {
			for k := 0; k < width; k++ {
				id := p.nextIssuable(v.arena, now)
				if id == 0 {
					break
				}
				v.issueUop(p, id, now)
			}
		}
		return
	}
	issued := 0
	for attempt := 0; attempt < n && issued < width; attempt++ {
		p := v.parts[next]
		if next++; next == n {
			next = 0
		}
		for issued < width {
			id := p.nextIssuable(v.arena, now)
			if id == 0 {
				break
			}
			v.issueUop(p, id, now)
			issued++
			if n > 1 {
				break // one slot per partition per cycle
			}
		}
	}
}

func (v *VCL) issueUop(p *partition, id pipe.UopID, now uint64) {
	u := v.arena.At(id)
	info := u.Dyn.Inst.Op.Info()
	vl := u.Dyn.VL
	occ := (vl + p.lanes - 1) / p.lanes
	if occ < 1 {
		occ = 1
	}
	u.Issued = true
	u.IssueCycle = now
	p.unissued--
	// Early commit: once issued, the instruction can no longer fault and
	// the scalar unit's ROB may release it.
	u.CommitCycle = now + 1
	v.VecIssued++
	v.VecElemOps += uint64(vl)

	var done uint64
	switch info.Class {
	case isa.ClassVecALU:
		f := info.VFU
		p.vfuFree[f] = now + uint64(occ)
		p.vfuCur[f] = vecExec{issue: now, vl: vl}
		p.pending[f]--
		done = now + uint64(occ) - 1 + uint64(info.Latency)
		u.ChainCycle = now + uint64(info.Latency)
	case isa.ClassVecLoad, isa.ClassVecStore:
		port := -1
		for i, f := range p.memFree {
			if f <= now {
				port = i
				break
			}
		}
		res := v.l2.AccessBulk(now, u.Dyn.EffAddrs, info.Class == isa.ClassVecStore, p.lanes)
		p.memFree[port] = res.LastIssue + 1
		if info.Class == isa.ClassVecLoad {
			done = res.Done
			// Chaining starts when the first element group arrives, but a
			// consumer advancing one group per cycle must never outrun the
			// last element's arrival.
			u.ChainCycle = res.FirstDone
			if lateStart := res.Done + 1 - uint64(occ); lateStart > u.ChainCycle {
				u.ChainCycle = lateStart
			}
		} else {
			// Stores retire once every element has been accepted by its
			// bank; the memory update completes asynchronously (the lane
			// store queues of the decoupled X1 design).
			done = res.LastIssue + 1
			u.ChainCycle = done
		}
	}
	v.arena.Complete(id, done)
	p.doneMin = min(p.doneMin, done)
}

// census charges cycles [from, to) to every arithmetic datapath in
// every lane (3 per lane), in the paper's Figure-4 categories. Tick
// charges its one cycle after issue; SkipIdle charges a whole quiescent
// span, across which no instruction issues, so the pending/idle class
// of every FU is constant and an FU mid-execution drains on the element
// schedule fixed at its issue.
func (v *VCL) census(from, to uint64) {
	for _, p := range v.parts {
		lanes := uint64(p.lanes)
		for f := 0; f < NumVFUs; f++ {
			cycle, cur := from, p.vfuCur[f]
			for end := min(to, p.vfuFree[f]); cycle < end; cycle++ {
				// FU executing: the elements of its instruction due this
				// cycle, one group of lanes per cycle since issue.
				rem := cur.vl - int(cycle-cur.issue)*p.lanes
				elems := uint64(min(max(rem, 0), p.lanes))
				v.Util.Busy += elems
				v.Util.PartIdle += lanes - elems
			}
			if cycle == to {
				continue
			}
			if p.pendingFor(f) {
				v.Util.Stalled += (to - cycle) * lanes
			} else {
				v.Util.AllIdle += (to - cycle) * lanes
			}
		}
	}
}

// pendingFor reports whether any unissued instruction in the window or
// VIQ targets arithmetic datapath f (memory instructions do not stall the
// arithmetic datapaths).
func (p *partition) pendingFor(f int) bool { return p.pending[f] > 0 }
