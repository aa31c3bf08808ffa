package pipe

import (
	"fmt"
	"math"

	"vlt/internal/vm"
)

// NeverDone is the DoneCycle value of an instruction whose completion time
// is not yet known.
const NeverDone = math.MaxUint64

// UopID is a handle to a uop in its machine's Arena; 0 is no uop. The
// pipeline queues, producer edges, last-writer slots and fetch gates
// all hold handles, never pointers, so a copy of the arena and of those
// handles is a complete copy of the in-flight instruction graph.
type UopID uint32

// MaxSrcs is the capacity of each of a uop's two edge lists: no
// instruction reads more than three operand slots (vfma, vsts, vstx)
// plus the implicit VL of a vector operation. The ISA does not fix a
// slot's register class (vfma.vs reads a scalar Rb), so either list may
// need every source; TestEdgeCapacity pins the bound against every op.
const MaxSrcs = 4

// edge names a uop's k-th producer edge as its handle times MaxSrcs
// plus k; 0 is no edge (handle 0 is no uop). Wait lists are built of
// edges, so they live inside the uops and allocate nothing.
type edge uint32

func edgeOf(id UopID, k int) edge { return edge(id)*MaxSrcs + edge(k) }

func (e edge) split() (UopID, int) { return UopID(e / MaxSrcs), int(e % MaxSrcs) }

// Edges is a uop's inline list of producer handles.
type Edges struct {
	ids [MaxSrcs]UopID
	n   uint8
}

// Add appends producer id.
func (e *Edges) Add(id UopID) {
	e.ids[e.n] = id
	e.n++
}

// IDs returns the producers in the order they were added.
func (e *Edges) IDs() []UopID { return e.ids[:e.n] }

// Uop is one in-flight dynamic instruction. The functional outcome
// (registers, memory, branch direction) was already computed by
// internal/vm at fetch, into Dyn; the rest is timing state.
type Uop struct {
	// The fields a readiness check and a wake-up touch come first, so a
	// uop's producer list, its wait-list links and a producer's
	// completion cycles sit in its first cache line; Dyn comes last.

	// DoneCycle is when the result becomes architecturally available.
	// NeverDone until execution determines it (or, for barriers and
	// vltcfg, until the machine-level controller releases it). It is
	// written once, by Arena.Complete.
	DoneCycle uint64

	// ChainCycle is when the first element group of a vector result is
	// available for chaining; equals DoneCycle for scalar results.
	ChainCycle uint64

	// readyAt is the latest completion among the producers Arena.Depend
	// linked whose completion is known, and waiting counts the others:
	// ReadyCycle reads the two instead of walking Producers.
	readyAt uint64

	// waiters heads the list of consumer edges waiting on this uop's
	// completion, and next[k] links this uop's own k-th producer edge
	// into that producer's list. Both hold edge references into the
	// arena, so they copy with the slab.
	waiters edge
	next    [MaxSrcs]edge

	// Producers are the older in-flight uops whose results this uop
	// reads. Producers that have already retired are dropped at dispatch
	// (their results are in the register file).
	Producers Edges

	waiting uint8 // linked producers whose completion is unknown (see readyAt)

	// parked asks Complete to queue the uop on its owner's woken list
	// once its last unknown producer completes; owner and key are what
	// Park was given, and Wake hands key back with the uop.
	parked bool
	owner  uint8

	Issued  bool
	Retired bool

	// Mispredicted marks a branch whose predicted direction differed
	// from the architectural outcome.
	Mispredicted bool

	// ScalarsCollected marks ScalarProducers captured: the scalar unit
	// collects them at a vector uop's first dispatch attempt, and a
	// VIQ-full retry keeps that capture.
	ScalarsCollected bool

	// released marks both edge lists dropped (ReleaseProducers ran).
	released bool

	// refs counts the durable references other pipeline structures hold
	// to this uop beyond its own front end's queues: producer edges,
	// last-writer tracking, and fetch-gating handles. Together with
	// Retired and released it decides when the arena may recycle the
	// uop (see Arena.Retain and Arena.Release).
	refs int32

	// ScalarProducers are the scalar-register producers of a vector uop,
	// tracked by the scalar unit and consulted by the vector control
	// logic (vector-scalar dependencies).
	ScalarProducers Edges

	key uint64

	// CommitCycle, when set (non-NeverDone), allows the reorder buffer to
	// retire the instruction before DoneCycle. The vector control logic
	// sets it at vector issue: once a vector instruction has issued its
	// addresses are translated and it can no longer fault, so the scalar
	// unit's ROB releases it while the vector unit tracks completion
	// (Espasa-style early commit of vector instructions).
	CommitCycle uint64

	Thread int // software thread id

	FetchCycle    uint64
	DispatchCycle uint64
	IssueCycle    uint64

	Dyn vm.Dyn
}

// arenaSlab is the number of uops per arena slab (~28 KB), a power of
// two so a handle splits into slab and slot with a shift and a mask.
// Most machines keep 100–500 uops in flight, so a fork copies a few
// slabs rather than one mostly empty large one.
const arenaSlab = 128

// Arena holds every uop of one machine: its scalar units, lane cores
// and vector control logic all tick on one goroutine and share it. Uops
// live in fixed-size slabs, so the *Uop that At returns never moves; a
// caller may hold one for the length of a call, but stores only
// handles. Dead uops — retired, edges released, no references left —
// go back on a free list, so steady-state simulation allocates nothing
// per instruction (a recycled slot keeps its Dyn's address buffer).
// The zero Arena is ready to use.
type Arena struct {
	slabs []*[arenaSlab]Uop
	next  UopID     // first slot never handed out (slot 0 is the null handle)
	free  []UopID   // recycled slots
	live  int       // uops handed out and not yet recycled
	woken [][]UopID // per owner, parked uops whose last unknown producer completed
	gated int       // front ends gated on a BAR or VLTCFG (Frontend.Fetch)
}

// Live returns the number of uops the arena has handed out that are not
// yet recycled: the in-flight window plus whatever is still pinned.
func (a *Arena) Live() int { return a.live }

// At returns the uop id names. The pointer stays valid for the arena's
// lifetime, but the slot is reused once the uop is recycled.
func (a *Arena) At(id UopID) *Uop { return &a.slabs[id/arenaSlab][id%arenaSlab] }

// New returns a fresh in-flight uop on the given thread, fetched at
// cycle now, with all completion times unknown — a recycled slot when
// one is free, otherwise the next slot of the current slab. The caller
// fills in its Dyn (vm.StepReusing keeps the slot's address buffer).
func (a *Arena) New(thread int, now uint64) (UopID, *Uop) {
	var id UopID
	var u *Uop
	if n := len(a.free); n > 0 {
		id = a.free[n-1]
		a.free = a.free[:n-1]
		u = a.At(id)
		// A free slot is retired, released and unreferenced, with both
		// edge lists empty; reset the rest.
		u.DispatchCycle = 0
		u.IssueCycle = 0
		u.Issued = false
		u.Retired = false
		u.Mispredicted = false
		u.ScalarsCollected = false
		u.released = false
		u.readyAt = 0
		u.waiters = 0
		u.parked = false
	} else {
		if a.next%arenaSlab == 0 {
			a.slabs = append(a.slabs, new([arenaSlab]Uop))
			a.next = max(a.next, 1)
		}
		id = a.next
		a.next++
		u = a.At(id)
	}
	a.live++
	u.Thread = thread
	u.FetchCycle = now
	u.DoneCycle = NeverDone
	u.CommitCycle = NeverDone
	u.ChainCycle = NeverDone
	return id, u
}

// Clone returns an independent copy of the arena: every slot, the free
// list and the live count, with each live slot's Dyn given its own
// address buffer at the same capacity (a free slot's buffer is dropped
// and grows again on reuse). A handle names the same uop in both, so a
// component forks its handle queues by copying them.
func (a *Arena) Clone() *Arena {
	n := &Arena{
		slabs: make([]*[arenaSlab]Uop, len(a.slabs)),
		next:  a.next,
		free:  CloneIDs(a.free),
		live:  a.live,
		woken: make([][]UopID, len(a.woken)),
		gated: a.gated,
	}
	for k, s := range a.slabs {
		n.slabs[k] = new([arenaSlab]Uop)
		*n.slabs[k] = *s
	}
	for t, w := range a.woken {
		n.woken[t] = CloneIDs(w)
	}
	for _, id := range n.free {
		n.At(id).Dyn.EffAddrs = nil
	}
	total := 0
	for _, s := range n.slabs {
		for i := range s {
			total += cap(s[i].Dyn.EffAddrs)
		}
	}
	// One backing array serves every buffer, each capped at its own
	// capacity so an append past it moves out, never into a neighbour.
	addrs := make([]uint64, 0, total)
	for _, s := range n.slabs {
		for i := range s {
			d := &s[i].Dyn
			if c := cap(d.EffAddrs); c > 0 {
				off := len(addrs)
				addrs = append(addrs, d.EffAddrs...)
				d.EffAddrs = addrs[off : len(addrs) : off+c]
				addrs = addrs[:off+c]
			}
		}
	}
	return n
}

// CloneIDs returns a copy of s with its own array at the same capacity:
// how a component forks a handle slice without growing it later.
func CloneIDs(s []UopID) []UopID { return append(make([]UopID, 0, cap(s)), s...) }

// Retain records one durable reference to uop id: a producer edge, a
// last-writer slot, or a fetch-gating handle. Every Retain must be
// paired with exactly one Release when the reference is dropped.
func (a *Arena) Retain(id UopID) { a.At(id).refs++ }

// Release drops one durable reference and recycles the uop once it is
// fully dead: retired, own edges released, and no references left.
func (a *Arena) Release(id UopID) {
	u := a.At(id)
	u.refs--
	a.maybeFree(id, u)
}

func (a *Arena) maybeFree(id UopID, u *Uop) {
	if u.refs == 0 && u.Retired && u.released {
		a.live--
		a.free = append(a.free, id)
	}
}

// Retire marks uop id retired from its reorder buffer. Retirement is a
// free point: a uop whose edges and references are already gone — a
// vector uop the VCL completed before the ROB released it — is recycled
// here, so Retire must be the caller's last use of id.
func (a *Arena) Retire(id UopID) {
	u := a.At(id)
	u.Retired = true
	a.maybeFree(id, u)
}

// ReleaseProducers drops uop id's dependence edges once no pipeline
// stage will read them again (scalar retirement for scalar uops, vector
// completion for vector uops). Consumers that still hold its handle
// only read its cycle fields, which stay valid until it is recycled.
// A uop still waiting on a producer sits on that producer's wait list,
// so releasing it panics.
func (a *Arena) ReleaseProducers(id UopID) {
	u := a.At(id)
	if u.waiting != 0 {
		panic("pipe: releasing the edges of a uop that waits on a producer")
	}
	for _, p := range u.Producers.IDs() {
		a.Release(p)
	}
	for _, p := range u.ScalarProducers.IDs() {
		a.Release(p)
	}
	u.Producers, u.ScalarProducers = Edges{}, Edges{}
	u.released = true
	a.maybeFree(id, u)
}

// DoneBy reports whether the uop's result is available at cycle now.
func (u *Uop) DoneBy(now uint64) bool { return u.DoneCycle <= now }

// RetireCycle returns the first cycle at which the reorder buffer may
// retire the uop: when its result completes or, for an early-committed
// vector instruction, when it commits, whichever is sooner. NeverDone
// means neither is known yet.
func (u *Uop) RetireCycle() uint64 { return min(u.DoneCycle, u.CommitCycle) }

// ReadyCycle returns the first cycle at which every producer of u that
// Arena.Depend linked has its result available, or NeverDone while one
// of them has not completed, so readiness is gated on another event: u
// may issue at now once ReadyCycle() <= now, and an event horizon folds
// it in through EventAt. It reads two fields that Depend and Complete
// keep current; nothing walks the producers.
func (u *Uop) ReadyCycle() uint64 {
	if u.waiting != 0 {
		return NeverDone
	}
	return u.readyAt
}

// Depend makes uop p a producer of uop id: it retains p, adds it to
// id's Producers and, while p's completion is unknown, links the edge
// into p's wait list, so Complete(p) later folds p's cycle into id's
// ReadyCycle. Every edge of a scalar or lane-core uop is added here; the
// vector control logic adds a vector uop's edges itself and reads their
// chain cycles.
func (a *Arena) Depend(id, p UopID) {
	a.Retain(p)
	u, pu := a.At(id), a.At(p)
	k := int(u.Producers.n)
	u.Producers.Add(p)
	if pu.DoneCycle != NeverDone {
		u.readyAt = max(u.readyAt, pu.DoneCycle)
		return
	}
	u.waiting++
	u.next[k] = pu.waiters
	pu.waiters = edgeOf(id, k)
}

// Complete records that uop id's result is available at cycle done. It
// is the only writer of DoneCycle, which is written once: completing a
// uop twice panics. Every consumer on id's wait list folds done into
// its ReadyCycle; a parked consumer whose last unknown producer this
// was goes on its owner's woken list (Wake).
func (a *Arena) Complete(id UopID, done uint64) {
	u := a.At(id)
	if u.DoneCycle != NeverDone || done == NeverDone {
		panic(fmt.Sprintf("pipe: uop %d completed at %d, already done at %d", id, done, u.DoneCycle))
	}
	u.DoneCycle = done
	for e := u.waiters; e != 0; {
		cid, k := e.split()
		c := a.At(cid)
		c.readyAt = max(c.readyAt, done)
		if c.waiting--; c.waiting == 0 && c.parked {
			c.parked = false
			a.woken[c.owner] = append(a.woken[c.owner], cid)
		}
		e, c.next[k] = c.next[k], 0
	}
	u.waiters = 0
}

// Park reports whether uop id still waits on a producer whose
// completion is unknown and, if so, has Complete queue it on owner's
// woken list once the last such producer completes. A unit that keeps
// waiting uops out of its issue scan parks them under its own owner
// number and takes them back, with key, through Wake.
func (a *Arena) Park(id UopID, owner uint8, key uint64) bool {
	u := a.At(id)
	if u.waiting == 0 {
		return false
	}
	for len(a.woken) <= int(owner) {
		a.woken = append(a.woken, nil)
	}
	u.parked, u.owner, u.key = true, owner, key
	return true
}

// Parked reports whether the uop is parked: Park queued it for a
// wake-up that has not come yet.
func (u *Uop) Parked() bool { return u.parked }

// Wake hands each uop on owner's woken list to take, in the order they
// woke, with the key it was parked with, and empties the list.
func (a *Arena) Wake(owner uint8, take func(id UopID, key uint64)) {
	if int(owner) >= len(a.woken) || len(a.woken[owner]) == 0 {
		return
	}
	for _, id := range a.woken[owner] {
		take(id, a.At(id).key)
	}
	a.woken[owner] = a.woken[owner][:0]
}

// Gated returns the number of front ends gated on a BAR or VLTCFG:
// while it is 0, the machine has no barrier to release and no
// repartition to apply.
func (a *Arena) Gated() int { return a.gated }

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

// Clone returns a deep copy of the predictor.
func (b *Bimodal) Clone() *Bimodal {
	return &Bimodal{
		table:       append([]uint8(nil), b.table...),
		mask:        b.mask,
		Lookups:     b.Lookups,
		Mispredicts: b.Mispredicts,
	}
}
