package pipe

import (
	"testing"

	"vlt/internal/clonecheck"
	"vlt/internal/isa"
	"vlt/internal/vm"
)

// Every field of the structs a machine fork copies must declare its
// clone semantics here; clonecheck fails this test when a field is
// added without one (or an entry goes stale).

func TestCloneCoversUop(t *testing.T) {
	clonecheck.Check(t, &Uop{}, map[string]string{
		"Dyn":              "value copy by Arena.Clone, with EffAddrs given its own array",
		"Thread":           "value copy",
		"FetchCycle":       "value copy",
		"DispatchCycle":    "value copy",
		"IssueCycle":       "value copy",
		"DoneCycle":        "value copy",
		"CommitCycle":      "value copy",
		"ChainCycle":       "value copy",
		"Issued":           "value copy",
		"Retired":          "value copy",
		"Mispredicted":     "value copy",
		"ScalarsCollected": "value copy",
		"Producers":        "value copy: inline handles name the same uops in the cloned arena",
		"ScalarProducers":  "value copy: inline handles name the same uops in the cloned arena",
		"released":         "value copy",
		"waiting":          "value copy",
		"readyAt":          "value copy",
		"waiters":          "value copy: edge references name the same uops in the cloned arena",
		"next":             "value copy: edge references name the same uops in the cloned arena",
		"parked":           "value copy",
		"key":              "value copy",
		"owner":            "value copy",
		"refs":             "value copy (every holder's handle is copied too, so counts stay consistent)",
	})
}

func TestCloneCoversArena(t *testing.T) {
	clonecheck.Check(t, &Arena{}, map[string]string{
		"slabs": "deep copy: every slot copied into fresh slabs, each Dyn's address buffer into its own array",
		"next":  "value copy",
		"free":  "copy at the same capacity: the clone recycles into its own free list",
		"live":  "value copy",
		"woken": "per-owner copies at the same capacity: the handles name the same uops in the cloned arena",
		"gated": "value copy (every front end's gating handle is copied too)",
	})
}

func TestCloneCoversRing(t *testing.T) {
	clonecheck.Check(t, &Ring{}, map[string]string{
		"buf":  "copy at the same capacity: the handles name the same uops in the cloned arena",
		"head": "value copy",
		"n":    "value copy",
	})
}

func TestCloneCoversBimodal(t *testing.T) {
	clonecheck.Check(t, &Bimodal{}, map[string]string{
		"table":       "deep copy",
		"mask":        "value copy",
		"Lookups":     "value copy",
		"Mispredicts": "value copy",
	})
}

func TestBimodalCloneIndependent(t *testing.T) {
	p := NewBimodal(64)
	p.Predict(12, true)
	p.Predict(12, true)
	c := p.Clone()
	c.Predict(12, false)
	c.Predict(12, false)
	// The parent's counter is untouched by the clone's lookups, and its
	// table still predicts taken where the clone was trained not-taken.
	if p.Lookups != 2 || c.Lookups != 4 {
		t.Errorf("lookup counters shared: parent %d, clone %d", p.Lookups, c.Lookups)
	}
	if correct := p.Predict(12, true); !correct {
		t.Errorf("clone training leaked into the parent's table")
	}
}

// TestArenaCloneIndependent pins the fork model: a cloned arena holds
// the same uops under the same handles, including their edges and the
// live slots' address buffers, and neither copy sees the other's
// writes, allocations or recycling.
func TestArenaCloneIndependent(t *testing.T) {
	var a Arena
	pid, p := a.New(0, 1)
	p.Dyn = vm.Dyn{PC: 3, Inst: &isa.Instruction{Op: isa.OpVLd}, EffAddrs: make([]uint64, 2, 8)}
	id, u := a.New(0, 2)
	u.Dyn.EffAddrs = make([]uint64, 0, 8)
	a.Retain(pid)
	u.Producers.Add(pid)
	for i := 0; i < arenaSlab; i++ { // a second slab, then free one slot
		a.New(1, 3)
	}
	a.Retire(id)
	a.ReleaseProducers(id)

	c := a.Clone()
	if c.Live() != a.Live() || len(c.slabs) != 2 || c.At(pid).Dyn.PC != 3 || c.At(pid).refs != 0 {
		t.Fatalf("clone live=%d slabs=%d pc=%d refs=%d, want %d 2 3 0",
			c.Live(), len(c.slabs), c.At(pid).Dyn.PC, c.At(pid).refs, a.Live())
	}
	ca := c.At(pid).Dyn.EffAddrs
	if len(ca) != 2 || cap(ca) != 8 || &ca[0] == &p.Dyn.EffAddrs[0] {
		t.Fatalf("clone's address buffer len=%d cap=%d, want its own 2/8", len(ca), cap(ca))
	}
	if c.At(id).Dyn.EffAddrs != nil {
		t.Error("the clone kept a free slot's address buffer")
	}
	c.At(pid).Dyn.EffAddrs[0] = 99
	c.At(pid).DoneCycle = 5
	if p.Dyn.EffAddrs[0] != 0 || p.DoneCycle != NeverDone {
		t.Error("a write through the clone reached the parent")
	}
	// Both recycle the freed slot, each into its own uop.
	if nid, _ := c.New(2, 9); nid != id {
		t.Fatalf("clone allocated %d, want the freed slot %d", nid, id)
	}
	if nid, nu := a.New(3, 9); nid != id || nu.Thread != 3 || c.At(id).Thread != 2 {
		t.Fatalf("parent allocated %d (thread %d), clone's slot thread %d", nid, nu.Thread, c.At(id).Thread)
	}
}
