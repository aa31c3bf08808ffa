package vcl

import (
	"fmt"
	"strings"
)

// This file is the VCL's self-checking surface for internal/guard: the
// cross-layer invariants the runtime auditor evaluates and the occupancy
// dump that goes into stall/invariant diagnostics.

// CheckScoreboard verifies the implicit-rename scoreboard: every
// partition's rename count must equal the number of window entries with a
// vector destination (each such entry holds exactly one physical
// register), and every structure must respect its capacity.
func (v *VCL) CheckScoreboard() error {
	for _, p := range v.parts {
		vecDests := 0
		for _, id := range p.win {
			if hasVecDest(v.arena.At(id)) {
				vecDests++
			}
		}
		if p.renames != vecDests {
			return fmt.Errorf("partition %d (thread %d): %d renames held but %d window entries have vector dests",
				p.id, p.thread, p.renames, vecDests)
		}
		if p.renames < 0 || p.renames > p.renameCap {
			return fmt.Errorf("partition %d (thread %d): rename count %d outside [0,%d]",
				p.id, p.thread, p.renames, p.renameCap)
		}
		if p.viq.Len() > p.viqCap || len(p.win) > p.winCap {
			return fmt.Errorf("partition %d (thread %d): viq %d/%d or window %d/%d over capacity",
				p.id, p.thread, p.viq.Len(), p.viqCap, len(p.win), p.winCap)
		}
	}
	return nil
}

// CheckOccupancy verifies the VCL's flow accounting: instructions
// accepted into the VIQ must equal instructions retired out of the
// window plus instructions still in flight.
func (v *VCL) CheckOccupancy() error {
	inFlight := uint64(v.InFlight())
	if v.Enqueued != v.Completed+inFlight {
		return fmt.Errorf("enqueued %d != completed %d + in-flight %d",
			v.Enqueued, v.Completed, inFlight)
	}
	return nil
}

// DebugDump renders per-partition occupancy at cycle now for a
// diagnostic dump: queue and window fill, held renames, and the lane
// datapath chimes still in flight.
func (v *VCL) DebugDump(now uint64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "vcl: enqueued=%d completed=%d in-flight=%d issued=%d\n",
		v.Enqueued, v.Completed, v.InFlight(), v.VecIssued)
	for _, p := range v.parts {
		chimes := 0
		for _, f := range p.vfuFree {
			if f > now {
				chimes++
			}
		}
		memBusy := 0
		for _, f := range p.memFree {
			if f > now {
				memBusy++
			}
		}
		fmt.Fprintf(&sb, "  partition %d (thread %d, %d lanes): viq=%d/%d window=%d/%d renames=%d/%d chimes-in-flight=%d mem-ports-busy=%d\n",
			p.id, p.thread, p.lanes, p.viq.Len(), p.viqCap, len(p.win), p.winCap,
			p.renames, p.renameCap, chimes, memBusy)
		for _, id := range p.win {
			u := v.arena.At(id)
			state := "waiting"
			if u.Issued {
				state = fmt.Sprintf("issued@%d done@%d", u.IssueCycle, u.DoneCycle)
			}
			fmt.Fprintf(&sb, "    win t%d @%-5d %-24s %s\n", u.Thread, u.Dyn.PC, u.Dyn.Inst, state)
		}
	}
	return sb.String()
}
