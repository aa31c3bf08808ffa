package lane

import (
	"testing"

	"vlt/internal/clonecheck"
)

// Clone-semantics declaration for the lane core; clonecheck fails this
// test when a field is added without one, so Clone cannot silently
// fall out of date.

func TestCloneCoversCore(t *testing.T) {
	clonecheck.Check(t, &Core{}, map[string]string{
		"ID":     "value copy",
		"cfg":    "value copy",
		"vmach":  "rebased onto the caller's cloned VM",
		"arena":  "rebased onto the caller's cloned arena, where every handle names the same uop",
		"icache": "deep copy, rebased onto the caller's cloned L2",
		"l2":     "rebased onto the caller's cloned L2",
		"pred":   "deep copy",

		"tid":    "value copy",
		"active": "value copy",

		"fetchQ": "copy at the same capacity (handles)",
		"rob":    "pipe.Ring.Clone: a copy of the handles at the same capacity",

		"fe": "value copy (pipe.Frontend holds only values and handles)",

		"OnRetire": "reset; core.Machine.Fork sets it (closure must capture the fork)",
		"Err":      "value copy",

		"Fetched": "value copy",
		"Issued":  "value copy",
		"Retired": "value copy",

		"StallOperand": "value copy",
		"StallMemPort": "value copy",
	})
}
