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
		"arena":      "rebased onto the caller's cloned arena, where every handle names the same uop",
		"icache":     "deep copy, rebased onto the caller's cloned L2",
		"dcache":     "deep copy, rebased onto the caller's cloned L2",
		"pred":       "deep copy",
		"vsink":      "rebased onto the caller's cloned VCL",
		"ctxs":       "deep copy via context.clone",
		"issueQ":     "copy at the same capacity (handles with cycles)",
		"parked":     "value copy (the parked uops live in the cloned arena)",
		"age":        "value copy",
		"fetchRR":    "value copy",
		"retireRR":   "value copy",
		"fetchReady": "reset: per-cycle scratch, repopulated every fetch",
		"OnRetire":   "reset; core.Machine.Fork sets it (closure must capture the fork)",
		"Err":        "value copy",

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

		"fetchQ": "pipe.Ring.Clone: a copy of the handles at the same capacity",
		"rob":    "pipe.Ring.Clone: a copy of the handles at the same capacity",
		"robCap": "value copy",

		"fe": "value copy (pipe.Frontend holds only values and handles)",
	})
}
