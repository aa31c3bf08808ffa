package pipe

import (
	"math"

	"vlt/internal/vm"
)

// NeverDone is the DoneCycle value of an instruction whose completion time
// is not yet known.
const NeverDone = math.MaxUint64

// Uop is one in-flight dynamic instruction. The functional outcome
// (registers, memory, branch direction) was already computed by
// internal/vm at fetch; Uop carries only timing state.
type Uop struct {
	Dyn    *vm.Dyn
	Thread int // software thread id

	FetchCycle    uint64
	DispatchCycle uint64
	IssueCycle    uint64

	// DoneCycle is when the result becomes architecturally available.
	// NeverDone until execution determines it (or, for barriers and
	// vltcfg, until the machine-level controller releases it).
	DoneCycle uint64

	// CommitCycle, when set (non-NeverDone), allows the reorder buffer to
	// retire the instruction before DoneCycle. The vector control logic
	// sets it at vector issue: once a vector instruction has issued its
	// addresses are translated and it can no longer fault, so the scalar
	// unit's ROB releases it while the vector unit tracks completion
	// (Espasa-style early commit of vector instructions).
	CommitCycle uint64

	// ChainCycle is when the first element group of a vector result is
	// available for chaining; equals DoneCycle for scalar results.
	ChainCycle uint64

	Issued  bool
	Retired bool

	// Mispredicted marks a branch whose predicted direction differed
	// from the architectural outcome.
	Mispredicted bool

	// Producers are the older in-flight uops whose results this uop
	// reads. Producers that have already retired are dropped at dispatch
	// (their results are in the register file).
	Producers []*Uop

	// ScalarProducers are the scalar-register producers of a vector uop,
	// tracked by the scalar unit and consulted by the vector control
	// logic (vector-scalar dependencies). nil means not yet collected;
	// once collected the list is non-nil, even when empty.
	ScalarProducers []*Uop

	// prodBuf is the inline backing store for Producers: nearly every
	// uop has at most a handful of producers, so NewUop points Producers
	// here and append only spills to the heap past four entries.
	prodBuf [4]*Uop

	// scalarBuf is the inline backing store for ScalarProducers: a vector
	// instruction reads at most a base, a stride and VL from the scalar
	// registers.
	scalarBuf [3]*Uop

	// refs counts the durable references other pipeline structures hold
	// to this uop beyond its own front end's queues: producer edges,
	// last-writer tracking, and fetch-gating pointers. Together with
	// Retired and released edges it decides when the owning arena may
	// recycle the uop (see Retain/Release).
	refs int32

	// freed guards against double-recycling an already freed uop.
	freed bool

	// arena is the owning allocator, nil for uops built with NewUop
	// directly (tests); nil-arena uops are never recycled.
	arena *Arena
}

// NewUop returns an in-flight uop for dyn on the given thread, fetched
// at cycle now, with all completion times unknown and Producers backed
// by the uop's inline storage.
func NewUop(dyn *vm.Dyn, thread int, now uint64) *Uop {
	u := &Uop{
		Dyn:         dyn,
		Thread:      thread,
		FetchCycle:  now,
		DoneCycle:   NeverDone,
		CommitCycle: NeverDone,
		ChainCycle:  NeverDone,
	}
	u.Producers = u.prodBuf[:0]
	return u
}

// arenaSlab is the number of uops per arena slab: large enough to
// amortize the allocator, small enough (~78KB) that an almost-drained
// slab pinned by one long-lived uop wastes little.
const arenaSlab = 512

// Arena allocates uops for one pipeline front end. Dead uops — retired,
// edges released, refcount zero — are recycled through a free list, so
// steady-state simulation performs no per-instruction heap allocation at
// all; when the free list is empty, uops are bump-allocated from slabs,
// replacing one heap allocation per dynamic instruction with one per
// 512. The zero Arena is ready to use. Arenas are not safe for
// concurrent use: one machine's components all tick on one goroutine.
type Arena struct {
	slab     []Uop
	freeUops []*Uop
	freeDyns []*vm.Dyn
	live     int // uops handed out and not yet recycled
}

// Live returns the number of uops the arena has handed out that are not
// yet recycled: the in-flight window plus whatever is still pinned.
func (a *Arena) Live() int { return a.live }

// NewUop returns an in-flight uop for dyn on the given thread, fetched
// at cycle now — recycled from the free list when possible, otherwise
// carved from the arena's current slab.
func (a *Arena) NewUop(dyn *vm.Dyn, thread int, now uint64) *Uop {
	var u *Uop
	if n := len(a.freeUops); n > 0 {
		u = a.freeUops[n-1]
		a.freeUops[n-1] = nil
		a.freeUops = a.freeUops[:n-1]
		// Free implies refs == 0, Producers/ScalarProducers nil and
		// both inline buffers cleared (ReleaseProducers ran); reset the
		// rest.
		u.DispatchCycle = 0
		u.IssueCycle = 0
		u.Issued = false
		u.Retired = false
		u.Mispredicted = false
		u.freed = false
	} else {
		if len(a.slab) == cap(a.slab) {
			a.slab = make([]Uop, 0, arenaSlab)
		}
		// Field assignments into the pre-zeroed slot, rather than
		// copying a composite literal, to avoid a 152-byte struct copy
		// plus bulk write barriers on the hottest path in the simulator.
		a.slab = a.slab[:len(a.slab)+1]
		u = &a.slab[len(a.slab)-1]
		u.arena = a
	}
	a.live++
	u.Dyn = dyn
	u.Thread = thread
	u.FetchCycle = now
	u.DoneCycle = NeverDone
	u.CommitCycle = NeverDone
	u.ChainCycle = NeverDone
	u.Producers = u.prodBuf[:0]
	return u
}

// RecycleDyn pops a dead Dyn record for reuse by the functional
// simulator (vm.StepReusing), or nil when none is free.
func (a *Arena) RecycleDyn() *vm.Dyn {
	n := len(a.freeDyns)
	if n == 0 {
		return nil
	}
	d := a.freeDyns[n-1]
	a.freeDyns[n-1] = nil
	a.freeDyns = a.freeDyns[:n-1]
	return d
}

// free returns a dead uop (and its Dyn) to the arena's free lists.
func (a *Arena) free(u *Uop) {
	u.freed = true
	a.live--
	a.freeUops = append(a.freeUops, u)
	if u.Dyn != nil {
		a.freeDyns = append(a.freeDyns, u.Dyn)
		u.Dyn = nil
	}
}

// Retain records one durable reference to the uop: a producer edge, a
// last-writer slot, or a fetch-gating pointer. Every Retain must be
// paired with exactly one Release when the reference is dropped.
func (u *Uop) Retain() { u.refs++ }

// Release drops one durable reference and recycles the uop once it is
// fully dead: retired, own edges released, and no references left.
func (u *Uop) Release() {
	u.refs--
	u.maybeFree()
}

func (u *Uop) maybeFree() {
	if u.arena != nil && !u.freed && u.refs == 0 && u.Retired && u.Producers == nil {
		u.arena.free(u)
	}
}

// Retire marks the uop retired from its reorder buffer. Retirement is a
// free point: a uop whose edges and references are already gone — a
// vector uop the VCL completed before the ROB released it — is recycled
// here, so Retire must be the caller's last use of u.
func (u *Uop) Retire() {
	u.Retired = true
	u.maybeFree()
}

// ReleaseProducers drops the uop's dependence edges once no pipeline
// stage will read them again (scalar retirement for scalar uops, vector
// completion for vector uops). Consumers that still hold a pointer to
// this uop only read its cycle fields, which stay valid; clearing the
// edges keeps retired producer chains from staying reachable for the
// whole run.
func (u *Uop) ReleaseProducers() {
	for _, p := range u.Producers {
		p.Release()
	}
	for _, p := range u.ScalarProducers {
		p.Release()
	}
	u.Producers = nil
	u.ScalarProducers = nil
	clear(u.prodBuf[:])
	clear(u.scalarBuf[:])
	u.maybeFree()
}

// CollectedScalarProducers returns an empty ScalarProducers list backed
// by the uop's inline storage. Assigning it marks the scalar producers
// collected (non-nil) without a heap allocation; appends spill to the
// heap only past three entries.
func (u *Uop) CollectedScalarProducers() []*Uop { return u.scalarBuf[:0] }

// DoneBy reports whether the uop's result is available at cycle now.
func (u *Uop) DoneBy(now uint64) bool { return u.DoneCycle <= now }

// RetireCycle returns the first cycle at which the reorder buffer may
// retire the uop: when its result completes or, for an early-committed
// vector instruction, when it commits, whichever is sooner. NeverDone
// means neither is known yet.
func (u *Uop) RetireCycle() uint64 { return min(u.DoneCycle, u.CommitCycle) }

// ReadyCycle returns the first cycle at which every producer's result is
// available, provided it is no later than bound: the uop may issue at
// now once ReadyCycle(now) <= now, and an event horizon ev folds in
// ReadyCycle(ev). A later cycle is not computed in full: the walk stops
// at the first producer past bound and returns its completion cycle —
// NeverDone when that producer's completion is still unknown, so
// readiness is gated on another event.
func (u *Uop) ReadyCycle(bound uint64) uint64 {
	var r uint64
	for _, p := range u.Producers {
		if r = max(r, p.DoneCycle); r > bound {
			return r
		}
	}
	return r
}

// Bimodal is a table of 2-bit saturating counters indexed by PC. The
// timing models run on the architecturally correct path (the functional
// simulator is the fetch stage), so the predictor's only job is deciding
// whether each branch would have been predicted correctly.
type Bimodal struct {
	table []uint8
	mask  int

	Lookups     uint64
	Mispredicts uint64
}

// NewBimodal builds a predictor with the given number of entries (rounded
// up to a power of two, minimum 16).
func NewBimodal(entries int) *Bimodal {
	n := 16
	for n < entries {
		n <<= 1
	}
	t := make([]uint8, n)
	for i := range t {
		t[i] = 1 // weakly not-taken
	}
	return &Bimodal{table: t, mask: n - 1}
}

// Predict consults and updates the predictor for a conditional branch at
// pc with architectural outcome taken. It reports whether the prediction
// was correct.
func (b *Bimodal) Predict(pc int, taken bool) bool {
	b.Lookups++
	i := pc & b.mask
	c := b.table[i]
	predTaken := c >= 2
	if taken && c < 3 {
		b.table[i] = c + 1
	} else if !taken && c > 0 {
		b.table[i] = c - 1
	}
	correct := predTaken == taken
	if !correct {
		b.Mispredicts++
	}
	return correct
}

// MispredictRate returns mispredicts/lookups, or 0 when unused.
func (b *Bimodal) MispredictRate() float64 {
	if b.Lookups == 0 {
		return 0
	}
	return float64(b.Mispredicts) / float64(b.Lookups)
}
