package vcl

import (
	"vlt/internal/mem"
	"vlt/internal/pipe"
)

// This file implements deep copying of the vector control logic for
// machine forking (core.Machine.Fork). The VCL owns no uop arena — the
// uops in its queues were allocated by the scalar units that dispatched
// them — so all uop pointers go through the shared pipe.Cloner, which
// must already have every scalar unit's arena registered (clone the
// scalar units first).

// Clone returns a deep copy of the VCL backed by the given (cloned) L2.
func (v *VCL) Clone(cl *pipe.Cloner, l2 *mem.L2) *VCL {
	n := &VCL{
		cfg:        v.cfg,
		l2:         l2,
		totalLanes: v.totalLanes,
		rr:         v.rr,
		Util:       v.Util,
		VecIssued:  v.VecIssued,
		VecElemOps: v.VecElemOps,
		VIQRejects: v.VIQRejects,
		Enqueued:   v.Enqueued,
		Completed:  v.Completed,
	}
	n.parts = make([]*partition, len(v.parts))
	for i, p := range v.parts {
		n.parts[i] = p.clone(cl)
	}
	return n
}

// clone returns a deep copy of one partition. The VIQ is rebased at
// offset 0 of a fresh ring of the same capacity; content and order —
// everything the timing model observes — are identical.
func (p *partition) clone(cl *pipe.Cloner) *partition {
	n := &partition{
		id:        p.id,
		thread:    p.thread,
		lanes:     p.lanes,
		viqCap:    p.viqCap,
		winCap:    p.winCap,
		viq:       p.viq.Clone(cl),
		renames:   p.renames,
		renameCap: p.renameCap,
		noChain:   p.noChain,
		vfuFree:   p.vfuFree,
		vfuCur:    p.vfuCur,
		memFree:   p.memFree,
	}
	n.win = make([]*pipe.Uop, 0, cap(p.win))
	for _, u := range p.win {
		n.win = append(n.win, cl.Uop(u))
	}
	for r := range p.lastWriter {
		n.lastWriter[r] = cl.Uop(p.lastWriter[r])
	}
	n.srcs = append(n.srcs, p.srcs...)[:0]
	return n
}

// ValidPartitionCount reports whether the VCL could be reconfigured
// into n equal partitions: the lanes must divide evenly and each
// partition needs at least one VIQ entry and one window entry. It does
// not check drain state — only the static shape constraints that
// Partition itself would enforce.
func (v *VCL) ValidPartitionCount(n int) bool {
	return n >= 1 && v.totalLanes%n == 0 && v.cfg.VIQSize/n >= 1 && v.cfg.WindowSize/n >= 1
}
