package core

import (
	"testing"

	"vlt/internal/clonecheck"
)

// Clone-semantics declaration for the whole machine assembly; this is
// the top of the fork tree, so clonecheck failing here is the first
// signal that a new Machine field needs a Fork decision.

func TestForkCoversMachine(t *testing.T) {
	clonecheck.Check(t, &Machine{}, map[string]string{
		"cfg":   "value copy",
		"vm":    "deep copy via vm.VM.Clone",
		"arena": "deep copy via pipe.Arena.Clone: every uop handle names the same uop in the copy",
		"l2":    "deep copy via mem.L2.Clone",
		"vu":    "copy via vcl.VCL.Clone, rebased onto the cloned arena and L2",
		"sus":   "copy via scalar.Unit.Clone, rebased onto the cloned VM, arena, L2 and VCL",
		"lcs":   "copy via lane.Core.Clone, rebased onto the cloned VM, arena and L2",
		"locs":  "value copy of the slice (location holds only scalars)",

		"region": "value copy of the slice",
		"now":    "value copy",

		"retireHook": "reset: observers are not carried across a fork",
		"forkAt":     "reset: hooks do not survive a fork; each copy sets its own",

		"reg":          "rebuilt: registerMetrics runs against the fork's own counters",
		"regionCycles": "deep copy",

		"watchdog": "deep copy via guard.Watchdog.Clone",
		"auditor":  "rebuilt by initGuard against the fork; Passes/Checks counters carried over",
		"ring":     "deep copy via guard.Ring.Clone",
		"retired":  "value copy (the conservation invariant's tally)",

		"skipRetired": "value copy",
		"coordOwners": "reset: per-coordinate scratch",

		"stage":       "value copy (fork from inside a hook resumes mid-cycle)",
		"decisionSeq": "value copy (fork re-fires the pending decision at the same index)",

		"regionCur":  "value copy",
		"regionPend": "value copy",
		"regionIDs":  "reset: regions' scratch",
	})
}
