package pipe

import (
	"testing"

	"vlt/internal/clonecheck"
)

// Every field of the structs Cloner copies must declare its clone
// semantics here; clonecheck fails this test when a field is added
// without one (or an entry goes stale).

func TestCloneCoversUop(t *testing.T) {
	clonecheck.Check(t, &Uop{}, map[string]string{
		"Dyn":             "deep copy via Cloner.Dyn (memoized)",
		"Thread":          "value copy",
		"FetchCycle":      "value copy",
		"DispatchCycle":   "value copy",
		"IssueCycle":      "value copy",
		"DoneCycle":       "value copy",
		"CommitCycle":     "value copy",
		"ChainCycle":      "value copy",
		"Issued":          "value copy",
		"Retired":         "value copy",
		"Mispredicted":    "value copy",
		"Producers":       "deep copy via Cloner.Uop, preserving nil vs prodBuf-backed",
		"ScalarProducers": "deep copy via Cloner.Uop, preserving nil vs non-nil-empty sentinel",
		"prodBuf":         "clone's own buffer backs its Producers when small enough",
		"scalarBuf":       "clone's own buffer backs its ScalarProducers when small enough",
		"refs":            "value copy (aliasing structure is preserved, so counts stay consistent)",
		"freed":           "value copy",
		"arena":           "mapped to the clone's arena via Cloner.RegisterArena",
	})
}

func TestCloneCoversArena(t *testing.T) {
	clonecheck.Check(t, &Arena{}, map[string]string{
		"slab":     "reset: clone arenas start empty and allocate on demand (timing never observes slabs)",
		"freeUops": "reset: free lists refill as the clone recycles its own uops",
		"freeDyns": "reset: same as freeUops",
		"live":     "counted afresh: Cloner.Uop adds one per live uop it re-owns into the clone's arena",
	})
}

func TestCloneCoversRing(t *testing.T) {
	clonecheck.Check(t, &Ring{}, map[string]string{
		"buf":  "fresh array at the same capacity, entries mapped through Cloner.Uop",
		"head": "reset to 0: the clone is rebased so its front sits at offset 0",
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

func TestClonerPanicsOnUnregisteredArena(t *testing.T) {
	var a Arena
	u := a.NewUop(nil, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("cloning an arena-owned uop without RegisterArena must panic")
		}
	}()
	NewCloner().Uop(u)
}
