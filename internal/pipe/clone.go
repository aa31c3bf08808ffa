package pipe

import "vlt/internal/vm"

// This file implements deep copying of the in-flight uop graph for
// machine forking (core.Machine.Fork). The graph is shaped by aliasing:
// one uop may be referenced from a fetch queue, a reorder buffer, a
// last-writer slot, a fetch-gating pointer, a VCL window and any number
// of producer edges at once, and refcount-based recycling (Retain/
// Release) depends on every one of those references pointing at the
// *same* object. A plain recursive copy would tear that sharing apart,
// so all cloning of uops funnels through one memoizing Cloner: each
// parent uop maps to exactly one clone, and every structural position
// that aliased the parent aliases the clone.

// Cloner deep-copies uops, their Dyn records and their producer edges,
// preserving aliasing: cloning the same *Uop twice returns the same
// clone. One Cloner is used per machine fork; it must not be reused
// across forks (its memo tables would alias the two copies).
type Cloner struct {
	uops   map[*Uop]*Uop
	dyns   map[*vm.Dyn]*vm.Dyn
	arenas map[*Arena]*Arena
}

// NewCloner returns an empty Cloner.
func NewCloner() *Cloner {
	return &Cloner{
		uops:   make(map[*Uop]*Uop),
		dyns:   make(map[*vm.Dyn]*vm.Dyn),
		arenas: make(map[*Arena]*Arena),
	}
}

// RegisterArena maps a parent component's arena to its clone's arena.
// Every arena whose uops may appear in the cloned graph must be
// registered before the first Uop call that reaches one of its uops —
// in practice the machine clones the scalar units and lane cores (each
// registering its own arena) before the VCL, whose queues only hold
// uops allocated by the scalar units. Re-owning matters: a cloned uop
// must recycle into the clone's free lists, never the parent's, or the
// two machines would share mutable allocator state.
func (c *Cloner) RegisterArena(parent, clone *Arena) {
	c.arenas[parent] = clone
}

// Uop returns the clone of u, copying it (and, transitively, its
// producer edges and Dyn record) on first sight. Uop(nil) is nil, so
// positional nil entries in queues clone verbatim.
func (c *Cloner) Uop(u *Uop) *Uop {
	if u == nil {
		return nil
	}
	if n, ok := c.uops[u]; ok {
		return n
	}
	n := &Uop{
		Thread:        u.Thread,
		FetchCycle:    u.FetchCycle,
		DispatchCycle: u.DispatchCycle,
		IssueCycle:    u.IssueCycle,
		DoneCycle:     u.DoneCycle,
		CommitCycle:   u.CommitCycle,
		ChainCycle:    u.ChainCycle,
		Issued:        u.Issued,
		Retired:       u.Retired,
		Mispredicted:  u.Mispredicted,
		refs:          u.refs,
		freed:         u.freed,
	}
	// Memoize before descending so aliased producer chains (and any
	// future cyclic structure) resolve to the one clone.
	c.uops[u] = n
	n.Dyn = c.Dyn(u.Dyn)
	if u.arena != nil {
		na, ok := c.arenas[u.arena]
		if !ok {
			panic("pipe: cloning a uop from an unregistered arena (clone the owning component first)")
		}
		n.arena = na
		if !u.freed {
			na.live++
		}
	}
	// nil-ness of the edge slices is load-bearing: maybeFree requires
	// Producers == nil, and the scalar unit uses a non-nil empty
	// ScalarProducers as its "already collected" sentinel. Preserve the
	// exact nil/empty/backed shape, including the inline prodBuf and
	// scalarBuf backing for small lists.
	if u.Producers != nil {
		if len(u.Producers) <= len(n.prodBuf) {
			n.Producers = n.prodBuf[:0]
		} else {
			n.Producers = make([]*Uop, 0, len(u.Producers))
		}
		for _, p := range u.Producers {
			n.Producers = append(n.Producers, c.Uop(p))
		}
	}
	if u.ScalarProducers != nil {
		if len(u.ScalarProducers) <= len(n.scalarBuf) {
			n.ScalarProducers = n.scalarBuf[:0]
		} else {
			n.ScalarProducers = make([]*Uop, 0, len(u.ScalarProducers))
		}
		for _, p := range u.ScalarProducers {
			n.ScalarProducers = append(n.ScalarProducers, c.Uop(p))
		}
	}
	return n
}

// Dyn returns the clone of d, copying it on first sight. Like uops, one
// Dyn may be referenced by several structures (a uop plus an arena free
// list in the parent); the memo keeps that a single object.
func (c *Cloner) Dyn(d *vm.Dyn) *vm.Dyn {
	if d == nil {
		return nil
	}
	if n, ok := c.dyns[d]; ok {
		return n
	}
	n := d.Clone()
	c.dyns[d] = n
	return n
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
