package vcl

import (
	"testing"

	"vlt/internal/isa"
	"vlt/internal/mem"
	"vlt/internal/pipe"
	"vlt/internal/vm"
)

func newVCL(lanes int) *VCL {
	return New(DefaultConfig(), mem.NewL2(mem.DefaultL2Config()), lanes)
}

func vecUop(thread int, in isa.Instruction, vl int, addrs []uint64) *pipe.Uop {
	inst := in
	return &pipe.Uop{
		Thread:    thread,
		Dyn:       &vm.Dyn{Thread: thread, Inst: &inst, VL: vl, EffAddrs: addrs},
		DoneCycle: pipe.NeverDone,
	}
}

func runCycles(v *VCL, from, to uint64) {
	for c := from; c < to; c++ {
		v.Tick(c)
	}
}

func TestSingleVectorOpTiming(t *testing.T) {
	v := newVCL(8)
	u := vecUop(0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 64, nil)
	if !v.Enqueue(u) {
		t.Fatal("enqueue refused")
	}
	v.Tick(0) // dispatch; issue happens the same cycle
	if !u.Issued {
		t.Fatal("uop not issued on cycle 0")
	}
	// occupancy = 64/8 = 8 cycles, latency 4: done at 0+8-1+4 = 11.
	if u.DoneCycle != 11 {
		t.Errorf("DoneCycle = %d, want 11", u.DoneCycle)
	}
	if u.ChainCycle != 4 {
		t.Errorf("ChainCycle = %d, want 4", u.ChainCycle)
	}
	if v.VecElemOps != 64 {
		t.Errorf("VecElemOps = %d, want 64", v.VecElemOps)
	}
}

func TestShortVectorUnderutilizesLanes(t *testing.T) {
	v := newVCL(8)
	u := vecUop(0, isa.Instruction{Op: isa.OpVAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 4, nil)
	v.Enqueue(u)
	v.Tick(0)
	// VL=4 on 8 lanes: occupancy 1 cycle, 4 busy + 4 partly idle on VFU0;
	// the other two VFUs are all-idle (8 lanes each).
	if v.Util.Busy != 4 || v.Util.PartIdle != 4 {
		t.Errorf("busy=%d partIdle=%d, want 4/4", v.Util.Busy, v.Util.PartIdle)
	}
	if v.Util.AllIdle != 16 {
		t.Errorf("allIdle=%d, want 16", v.Util.AllIdle)
	}
}

func TestChainingAllowsOverlap(t *testing.T) {
	v := newVCL(8)
	u1 := vecUop(0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 64, nil)
	u2 := vecUop(0, isa.Instruction{Op: isa.OpVFMul, Rd: isa.V(4), Ra: isa.V(1), Rb: isa.V(5)}, 64, nil)
	v.Enqueue(u1)
	v.Enqueue(u2)
	runCycles(v, 0, 20)
	if !u2.Issued {
		t.Fatal("dependent uop never issued")
	}
	// u1 completes at 11; chaining lets u2 (different VFU) start at
	// u1.ChainCycle = 4, well before completion.
	if u2.IssueCycle != u1.ChainCycle {
		t.Errorf("u2 issued at %d, want chain cycle %d", u2.IssueCycle, u1.ChainCycle)
	}
}

func TestStructuralHazardSameVFU(t *testing.T) {
	v := newVCL(8)
	// Two independent VFU-1 (fadd) ops: second must wait for occupancy.
	u1 := vecUop(0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 64, nil)
	u2 := vecUop(0, isa.Instruction{Op: isa.OpVFSub, Rd: isa.V(4), Ra: isa.V(5), Rb: isa.V(6)}, 64, nil)
	v.Enqueue(u1)
	v.Enqueue(u2)
	runCycles(v, 0, 20)
	if u2.IssueCycle != 8 {
		t.Errorf("u2 issued at %d, want 8 (VFU busy 8 cycles)", u2.IssueCycle)
	}
}

func TestIssueWidthLimitsIndependentOps(t *testing.T) {
	v := newVCL(8)
	// Three independent ops on three different VFUs: only 2 issue slots
	// per cycle.
	ops := []isa.Op{isa.OpVAdd, isa.OpVFAdd, isa.OpVFMul}
	var uops []*pipe.Uop
	for i, op := range ops {
		u := vecUop(0, isa.Instruction{Op: op, Rd: isa.V(i + 1), Ra: isa.V(10), Rb: isa.V(11)}, 64, nil)
		uops = append(uops, u)
		v.Enqueue(u)
	}
	runCycles(v, 0, 5)
	if uops[0].IssueCycle != 0 || uops[1].IssueCycle != 0 {
		t.Errorf("first two should issue at 0: got %d, %d", uops[0].IssueCycle, uops[1].IssueCycle)
	}
	if uops[2].IssueCycle != 1 {
		t.Errorf("third should issue at 1, got %d", uops[2].IssueCycle)
	}
}

func TestPartitioningSplitsLanesAndIssue(t *testing.T) {
	v := newVCL(8)
	if err := v.Partition([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if v.LanesFor(0) != 4 || v.LanesFor(1) != 4 {
		t.Errorf("lanes = %d/%d, want 4/4", v.LanesFor(0), v.LanesFor(1))
	}
	// VL=32 on 4 lanes: occupancy 8 cycles.
	u0 := vecUop(0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 32, nil)
	u1 := vecUop(1, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 32, nil)
	v.Enqueue(u0)
	v.Enqueue(u1)
	v.Tick(0)
	if !u0.Issued || !u1.Issued {
		t.Fatal("both partitions should issue in the same cycle")
	}
	if u0.DoneCycle != 0+8-1+4 {
		t.Errorf("u0 done = %d, want 11", u0.DoneCycle)
	}
}

func TestEnqueueRejectsUnknownThreadAndFullVIQ(t *testing.T) {
	v := newVCL(8)
	if v.Enqueue(vecUop(3, isa.Instruction{Op: isa.OpVAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 8, nil)) {
		t.Error("enqueue for thread without partition should fail")
	}
	// Fill the VIQ (32 entries, one partition). Ops depend on a never-done
	// producer so they cannot drain: make them all read v9 written by a
	// blocked uop... simpler: don't tick, queue just fills.
	for i := 0; i < 32; i++ {
		if !v.Enqueue(vecUop(0, isa.Instruction{Op: isa.OpVAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 8, nil)) {
			t.Fatalf("enqueue %d refused before VIQ full", i)
		}
	}
	if v.Enqueue(vecUop(0, isa.Instruction{Op: isa.OpVAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 8, nil)) {
		t.Error("enqueue past VIQ capacity should fail")
	}
	if v.VIQRejects == 0 {
		t.Error("VIQRejects not counted")
	}
}

func TestScalarDependencyBlocksIssue(t *testing.T) {
	v := newVCL(8)
	producer := &pipe.Uop{DoneCycle: 15} // scalar producer finishing at 15
	u := vecUop(0, isa.Instruction{Op: isa.OpVAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.R(5), BScalar: true}, 8, nil)
	u.ScalarProducers = []*pipe.Uop{producer}
	v.Enqueue(u)
	runCycles(v, 0, 30)
	if u.IssueCycle != 15 {
		t.Errorf("issued at %d, want 15 (scalar operand ready)", u.IssueCycle)
	}
}

func TestVectorLoadTimingAndChaining(t *testing.T) {
	v := newVCL(8)
	addrs := make([]uint64, 64)
	for i := range addrs {
		addrs[i] = uint64(i) * 8
	}
	ld := vecUop(0, isa.Instruction{Op: isa.OpVLd, Rd: isa.V(1), Ra: isa.R(2)}, 64, addrs)
	use := vecUop(0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(3), Ra: isa.V(1), Rb: isa.V(4)}, 64, nil)
	v.Enqueue(ld)
	v.Enqueue(use)
	runCycles(v, 0, 300)
	if !ld.Issued || !use.Issued {
		t.Fatal("load chain never issued")
	}
	if ld.DoneCycle <= ld.IssueCycle {
		t.Error("load completion not after issue")
	}
	if use.IssueCycle != ld.ChainCycle {
		t.Errorf("consumer issued at %d, want chain point %d", use.IssueCycle, ld.ChainCycle)
	}
	if use.IssueCycle >= ld.DoneCycle {
		t.Error("chaining should beat full load completion")
	}
}

func TestTwoMemPortsOverlap(t *testing.T) {
	v := newVCL(8)
	addrs := make([]uint64, 64)
	for i := range addrs {
		addrs[i] = uint64(i) * 8
	}
	addrs2 := make([]uint64, 64)
	for i := range addrs2 {
		addrs2[i] = uint64(i)*8 + 65536
	}
	addrs3 := make([]uint64, 64)
	for i := range addrs3 {
		addrs3[i] = uint64(i)*8 + 131072
	}
	ld1 := vecUop(0, isa.Instruction{Op: isa.OpVLd, Rd: isa.V(1), Ra: isa.R(2)}, 64, addrs)
	ld2 := vecUop(0, isa.Instruction{Op: isa.OpVLd, Rd: isa.V(2), Ra: isa.R(3)}, 64, addrs2)
	ld3 := vecUop(0, isa.Instruction{Op: isa.OpVLd, Rd: isa.V(3), Ra: isa.R(4)}, 64, addrs3)
	v.Enqueue(ld1)
	v.Enqueue(ld2)
	v.Enqueue(ld3)
	runCycles(v, 0, 300)
	// Two ports: the first two loads overlap in the same cycle.
	if ld1.IssueCycle != 0 || ld2.IssueCycle != 0 {
		t.Errorf("first two loads should both issue at 0, got %d and %d",
			ld1.IssueCycle, ld2.IssueCycle)
	}
	// The third load must wait for a port: 64 elements at 8/cycle keeps a
	// port busy about 8 cycles.
	if ld3.IssueCycle < 8 {
		t.Errorf("third load issued at %d, want >= 8 (both ports busy)", ld3.IssueCycle)
	}
}

func TestDrainAndRepartition(t *testing.T) {
	v := newVCL(8)
	u := vecUop(0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 64, nil)
	v.Enqueue(u)
	v.Tick(0)
	if v.DrainCycle() <= 1 {
		t.Error("should not be drained while executing")
	}
	if err := v.Partition([]int{0, 1}); err == nil {
		t.Error("repartition should fail while in flight")
	}
	runCycles(v, 1, 40)
	if v.DrainCycle() > 40 {
		t.Error("should be drained after completion")
	}
	if err := v.Partition([]int{0, 1, 2, 3}); err != nil {
		t.Errorf("repartition failed: %v", err)
	}
	if v.NumPartitions() != 4 || v.LanesFor(3) != 2 {
		t.Error("repartition geometry wrong")
	}
}

func TestPartitionValidation(t *testing.T) {
	v := newVCL(8)
	if err := v.Partition([]int{0, 1, 2}); err == nil {
		t.Error("3 partitions of 8 lanes should fail")
	}
	if err := v.Partition(nil); err == nil {
		t.Error("0 partitions should fail")
	}
}

func TestUtilizationConservation(t *testing.T) {
	// Over any run, total datapath-cycles == cycles * 3 VFUs * lanes.
	v := newVCL(8)
	for i := 0; i < 5; i++ {
		v.Enqueue(vecUop(0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 37, nil))
	}
	const cycles = 100
	runCycles(v, 0, cycles)
	want := uint64(cycles * NumVFUs * 8)
	if got := v.Util.Total(); got != want {
		t.Errorf("utilization total = %d, want %d", got, want)
	}
	if v.Util.Busy != 5*37 {
		t.Errorf("busy = %d, want %d element ops", v.Util.Busy, 5*37)
	}
}

func TestStalledAccounting(t *testing.T) {
	v := newVCL(8)
	// An op blocked on a never-finishing scalar producer: its VFU counts
	// as stalled, not idle.
	blocked := vecUop(0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 8, nil)
	blocked.ScalarProducers = []*pipe.Uop{{DoneCycle: pipe.NeverDone}}
	v.Enqueue(blocked)
	runCycles(v, 0, 10)
	if v.Util.Stalled == 0 {
		t.Error("expected stalled datapath-cycles")
	}
	// VFU1 (fadd) stalled 10 cycles * 8 lanes = 80.
	if v.Util.Stalled != 80 {
		t.Errorf("stalled = %d, want 80", v.Util.Stalled)
	}
}

func TestRenameCapBlocksDispatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PhysRegs = isa.NumVecRegs + 2 // only 2 renames available
	cfg.VIQSize = 32
	cfg.WindowSize = 32
	v := New(cfg, mem.NewL2(mem.DefaultL2Config()), 8)
	// Three ops blocked on a never-done scalar producer, each with a
	// vector destination: only 2 should reach the window.
	never := &pipe.Uop{DoneCycle: pipe.NeverDone}
	for i := 0; i < 3; i++ {
		u := vecUop(0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(i), Ra: isa.V(10), Rb: isa.V(11)}, 8, nil)
		u.ScalarProducers = []*pipe.Uop{never}
		v.Enqueue(u)
	}
	runCycles(v, 0, 5)
	if got := v.parts[0].renames; got != 2 {
		t.Errorf("renames in flight = %d, want 2", got)
	}
	if got := v.parts[0].viq.Len(); got != 1 {
		t.Errorf("VIQ backlog = %d, want 1", got)
	}
}
