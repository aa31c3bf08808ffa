package scalar

import (
	"testing"

	"vlt/internal/clonecheck"
)

// Clone-semantics declarations for the scalar unit; clonecheck fails
// these tests when a field is added without one, so Clone cannot
// silently fall out of date.

func TestCloneCoversUnit(t *testing.T) {
	clonecheck.Check(t, &Unit{}, map[string]string{
		"ID":         "value copy",
		"cfg":        "value copy",
		"vmach":      "rebased onto the caller's cloned VM",
		"icache":     "deep copy, rebased onto the caller's cloned L2",
		"dcache":     "deep copy, rebased onto the caller's cloned L2",
		"pred":       "deep copy",
		"vsink":      "re-wired by core.Machine.Fork via SetVectorSink",
		"ctxs":       "deep copy via context.clone",
		"window":     "rebuilt via Cloner.Uop, preserving aliasing with the ROBs",
		"fetchRR":    "value copy",
		"retireRR":   "value copy",
		"fetchReady": "reset: per-cycle scratch, repopulated every fetch",
		"arena":      "reset: fresh slab, registered with the Cloner so cloned uops land here",
		"OnRetire":   "re-wired by core.Machine.Fork (closure must capture the fork)",
		"Err":        "value copy",
		"dropNext":   "value copy (armed fault injection carries over)",

		"Fetched":     "value copy",
		"Dispatched":  "value copy",
		"IssuedCount": "value copy",
		"Retired":     "value copy",

		"FetchStallBranch": "value copy",
		"FetchStallICache": "value copy",
		"DispStallROB":     "value copy",
		"DispStallWindow":  "value copy",
		"DispStallVIQ":     "value copy",
	})
}

func TestCloneCoversContext(t *testing.T) {
	clonecheck.Check(t, &context{}, map[string]string{
		"slot":   "value copy",
		"tid":    "value copy",
		"active": "value copy",

		"fetchQ": "pipe.Ring.Clone: same capacity, rebased at offset 0, entries via Cloner.Uop",
		"rob":    "pipe.Ring.Clone: same capacity, rebased at offset 0, entries via Cloner.Uop",
		"robCap": "value copy",

		"fe": "pipe.Frontend.Clone, after the unit registers its arena",
	})
}
