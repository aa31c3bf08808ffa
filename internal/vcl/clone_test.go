package vcl

import (
	"testing"

	"vlt/internal/clonecheck"
)

// Clone-semantics declarations for the vector coprocessor; clonecheck
// fails these tests when a field is added without one, so Clone cannot
// silently fall out of date.

func TestCloneCoversVCL(t *testing.T) {
	clonecheck.Check(t, &VCL{}, map[string]string{
		"cfg":        "value copy",
		"l2":         "rebased onto the caller's cloned L2",
		"totalLanes": "value copy",
		"parts":      "deep copy via partition.clone",
		"rr":         "value copy",

		"Util": "value copy (plain counters)",

		"VecIssued":  "value copy",
		"VecElemOps": "value copy",
		"VIQRejects": "value copy",

		"Enqueued":  "value copy",
		"Completed": "value copy",
	})
}

func TestCloneCoversPartition(t *testing.T) {
	clonecheck.Check(t, &partition{}, map[string]string{
		"id":     "value copy",
		"thread": "value copy",
		"lanes":  "value copy",

		"viqCap": "value copy",
		"winCap": "value copy",
		"viq":    "pipe.Ring.Clone: same capacity, rebased at offset 0, entries via Cloner.Uop",
		"win":    "rebuilt via Cloner.Uop (window entries alias VIQ history)",
		"srcs":   "reset: per-dispatch scratch",

		"lastWriter": "per-register map through Cloner.Uop",
		"renames":    "value copy",
		"renameCap":  "value copy",
		"noChain":    "value copy",

		"vfuFree": "value copy (array of cycle stamps)",
		"vfuCur":  "value copy (vecExec holds only scalars)",
		"memFree": "value copy (array of cycle stamps)",
	})
}
