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
		"icache": "deep copy, rebased onto the caller's cloned L2",
		"l2":     "rebased onto the caller's cloned L2",
		"pred":   "deep copy",

		"tid":    "value copy",
		"active": "value copy",

		"fetchQ": "rebuilt via Cloner.Uop, preserving positional nil holes",
		"rob":    "pipe.Ring.Clone: same capacity, rebased at offset 0, entries via Cloner.Uop",

		"arena": "reset: fresh slab, registered with the Cloner so cloned uops land here",
		"fe":    "pipe.Frontend.Clone, after the core registers its arena",

		"OnRetire": "re-wired by core.Machine.Fork (closure must capture the fork)",
		"Err":      "value copy",

		"Fetched": "value copy",
		"Issued":  "value copy",
		"Retired": "value copy",

		"StallOperand": "value copy",
		"StallMemPort": "value copy",
	})
}
