package vcl

import (
	"fmt"
	"slices"
	"testing"

	"vlt/internal/isa"
	"vlt/internal/mem"
	"vlt/internal/pipe"
	"vlt/internal/vm"
)

func newVCL(lanes int) *VCL {
	return New(DefaultConfig(), new(pipe.Arena), mem.NewL2(mem.DefaultL2Config()), lanes)
}

// vecUop returns a fresh vector uop of v's arena on thread.
func vecUop(v *VCL, thread int, in isa.Instruction, vl int, addrs []uint64) (pipe.UopID, *pipe.Uop) {
	id, u := v.arena.New(thread, 0)
	u.Dyn = vm.Dyn{Thread: thread, Inst: &in, VL: vl, EffAddrs: addrs}
	return id, u
}

// offer enqueues a fresh vector uop and reports whether v accepted it.
func offer(v *VCL, thread int, in isa.Instruction, vl int) bool {
	id, _ := vecUop(v, thread, in, vl, nil)
	return v.Enqueue(id)
}

// never returns a uop of v's arena that never completes.
func never(v *VCL) pipe.UopID {
	id, _ := v.arena.New(0, 0)
	return id
}

func runCycles(v *VCL, from, to uint64) {
	for c := from; c < to; c++ {
		v.Tick(c)
	}
}

func TestSingleVectorOpTiming(t *testing.T) {
	v := newVCL(8)
	uID, u := vecUop(v, 0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 64, nil)
	if !v.Enqueue(uID) {
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
	uID, _ := vecUop(v, 0, isa.Instruction{Op: isa.OpVAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 4, nil)
	v.Enqueue(uID)
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
	u1ID, u1 := vecUop(v, 0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 64, nil)
	u2ID, u2 := vecUop(v, 0, isa.Instruction{Op: isa.OpVFMul, Rd: isa.V(4), Ra: isa.V(1), Rb: isa.V(5)}, 64, nil)
	v.Enqueue(u1ID)
	v.Enqueue(u2ID)
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
	u1ID, _ := vecUop(v, 0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 64, nil)
	u2ID, u2 := vecUop(v, 0, isa.Instruction{Op: isa.OpVFSub, Rd: isa.V(4), Ra: isa.V(5), Rb: isa.V(6)}, 64, nil)
	v.Enqueue(u1ID)
	v.Enqueue(u2ID)
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
	var uops []pipe.UopID
	for i, op := range ops {
		uID, _ := vecUop(v, 0, isa.Instruction{Op: op, Rd: isa.V(i + 1), Ra: isa.V(10), Rb: isa.V(11)}, 64, nil)
		uops = append(uops, uID)
		v.Enqueue(uID)
	}
	runCycles(v, 0, 5)
	issue := func(i int) uint64 { return v.arena.At(uops[i]).IssueCycle }
	if issue(0) != 0 || issue(1) != 0 {
		t.Errorf("first two should issue at 0: got %d, %d", issue(0), issue(1))
	}
	if issue(2) != 1 {
		t.Errorf("third should issue at 1, got %d", issue(2))
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
	u0ID, u0 := vecUop(v, 0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 32, nil)
	u1ID, u1 := vecUop(v, 1, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 32, nil)
	v.Enqueue(u0ID)
	v.Enqueue(u1ID)
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
	if offer(v, 3, isa.Instruction{Op: isa.OpVAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 8) {
		t.Error("enqueue for thread without partition should fail")
	}
	// Fill the VIQ (32 entries, one partition). Ops depend on a never-done
	// producer so they cannot drain: make them all read v9 written by a
	// blocked uop... simpler: don't tick, queue just fills.
	for i := 0; i < 32; i++ {
		if !offer(v, 0, isa.Instruction{Op: isa.OpVAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 8) {
			t.Fatalf("enqueue %d refused before VIQ full", i)
		}
	}
	if offer(v, 0, isa.Instruction{Op: isa.OpVAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 8) {
		t.Error("enqueue past VIQ capacity should fail")
	}
	if v.VIQRejects == 0 {
		t.Error("VIQRejects not counted")
	}
}

func TestScalarDependencyBlocksIssue(t *testing.T) {
	v := newVCL(8)
	producerID, producer := v.arena.New(0, 0)
	producer.DoneCycle = 15 // scalar producer finishing at 15
	uID, u := vecUop(v, 0, isa.Instruction{Op: isa.OpVAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.R(5), BScalar: true}, 8, nil)
	u.ScalarProducers.Add(producerID)
	v.Enqueue(uID)
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
	ldID, ld := vecUop(v, 0, isa.Instruction{Op: isa.OpVLd, Rd: isa.V(1), Ra: isa.R(2)}, 64, addrs)
	useID, use := vecUop(v, 0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(3), Ra: isa.V(1), Rb: isa.V(4)}, 64, nil)
	v.Enqueue(ldID)
	v.Enqueue(useID)
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
	ld1ID, ld1 := vecUop(v, 0, isa.Instruction{Op: isa.OpVLd, Rd: isa.V(1), Ra: isa.R(2)}, 64, addrs)
	ld2ID, ld2 := vecUop(v, 0, isa.Instruction{Op: isa.OpVLd, Rd: isa.V(2), Ra: isa.R(3)}, 64, addrs2)
	ld3ID, ld3 := vecUop(v, 0, isa.Instruction{Op: isa.OpVLd, Rd: isa.V(3), Ra: isa.R(4)}, 64, addrs3)
	v.Enqueue(ld1ID)
	v.Enqueue(ld2ID)
	v.Enqueue(ld3ID)
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
	uID, _ := vecUop(v, 0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 64, nil)
	v.Enqueue(uID)
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
		offer(v, 0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 37)
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
	blockedID, blocked := vecUop(v, 0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(1), Ra: isa.V(2), Rb: isa.V(3)}, 8, nil)
	blocked.ScalarProducers.Add(never(v))
	v.Enqueue(blockedID)
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
	v := New(cfg, new(pipe.Arena), mem.NewL2(mem.DefaultL2Config()), 8)
	// Three ops blocked on a never-done scalar producer, each with a
	// vector destination: only 2 should reach the window.
	blocker := never(v)
	for i := 0; i < 3; i++ {
		uID, u := vecUop(v, 0, isa.Instruction{Op: isa.OpVFAdd, Rd: isa.V(i), Ra: isa.V(10), Rb: isa.V(11)}, 8, nil)
		u.ScalarProducers.Add(blocker)
		v.Enqueue(uID)
	}
	runCycles(v, 0, 5)
	if got := v.parts[0].renames; got != 2 {
		t.Errorf("renames in flight = %d, want 2", got)
	}
	if got := v.parts[0].viq.Len(); got != 1 {
		t.Errorf("VIQ backlog = %d, want 1", got)
	}
}

// TestCheckPartitions is the table of the partition rule over lanes 1–16
// × counts 1–16 at the Table 3 VIQ and window (32 entries each, so only
// the lanes refuse there): the accepted counts of each lane count are
// its divisors, and every other count is refused for not splitting the
// lanes. The rows after it refuse for the other reasons.
func TestCheckPartitions(t *testing.T) {
	accepted := map[int][]int{
		1: {1}, 2: {1, 2}, 3: {1, 3}, 4: {1, 2, 4}, 5: {1, 5}, 6: {1, 2, 3, 6},
		7: {1, 7}, 8: {1, 2, 4, 8}, 9: {1, 3, 9}, 10: {1, 2, 5, 10}, 11: {1, 11},
		12: {1, 2, 3, 4, 6, 12}, 13: {1, 13}, 14: {1, 2, 7, 14}, 15: {1, 3, 5, 15},
		16: {1, 2, 4, 8, 16},
	}
	for lanes := 1; lanes <= 16; lanes++ {
		for n := 1; n <= 16; n++ {
			err := CheckPartitions(DefaultConfig(), lanes, n)
			if slices.Contains(accepted[lanes], n) {
				if err != nil {
					t.Errorf("%d lanes, %d partitions: %v, want accepted", lanes, n, err)
				}
				continue
			}
			want := fmt.Sprintf("vcl: cannot split %d lanes into %d partitions", lanes, n)
			if err == nil || err.Error() != want {
				t.Errorf("%d lanes, %d partitions: %v, want %q", lanes, n, err, want)
			}
		}
	}
	small := DefaultConfig()
	small.VIQSize, small.WindowSize = 2, 3
	for _, c := range []struct {
		cfg      Config
		lanes, n int
		want     string
	}{
		{DefaultConfig(), 8, 0, "vcl: cannot split 8 lanes into 0 partitions"},
		{DefaultConfig(), 8, -1, "vcl: cannot split 8 lanes into -1 partitions"},
		{small, 4, 2, ""},
		{small, 4, 4, "vcl: 4 partitions leave no VIQ entry (VIQSize 2)"},
		{Config{VIQSize: 8, WindowSize: 3}, 4, 4, "vcl: 4 partitions leave no window entry (WindowSize 3)"},
	} {
		err := CheckPartitions(c.cfg, c.lanes, c.n)
		if got := fmt.Sprint(err); (c.want == "" && err != nil) || (c.want != "" && got != c.want) {
			t.Errorf("%+v, %d lanes, %d partitions: %v, want %q", c.cfg, c.lanes, c.n, err, c.want)
		}
	}
}

// TestPartitionFollowsTheRule: Partition refuses exactly the counts
// CheckPartitions does, with its error.
func TestPartitionFollowsTheRule(t *testing.T) {
	for _, lanes := range []int{6, 8, 12} {
		v := newVCL(lanes)
		for n := 0; n <= 16; n++ {
			owners := make([]int, n)
			for i := range owners {
				owners[i] = i
			}
			want, got := CheckPartitions(DefaultConfig(), lanes, n), v.Partition(owners)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%d lanes: Partition into %d: %v, want %v", lanes, n, got, want)
			}
		}
	}
}
