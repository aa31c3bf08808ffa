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
		"arena":      "rebased onto the caller's cloned arena, where every handle names the same uop",
		"l2":         "rebased onto the caller's cloned L2",
		"totalLanes": "value copy",
		"parts":      "each partition copied, with its own viq and win arrays",
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
		"viq":    "pipe.Ring.Clone: a copy of the handles at the same capacity",
		"win":    "copy at the same capacity (handles)",

		"lastWriter": "value copy (array of handles)",
		"renames":    "value copy",
		"renameCap":  "value copy",
		"noChain":    "value copy",

		"vfuFree":  "value copy (array of cycle stamps)",
		"vfuCur":   "value copy (vecExec holds only scalars)",
		"memFree":  "value copy (array of cycle stamps)",
		"pending":  "value copy (array of counts)",
		"unissued": "value copy",
		"doneMin":  "value copy",
	})
}
