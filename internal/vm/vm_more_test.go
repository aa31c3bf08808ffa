package vm

import (
	"math"
	"strings"
	"testing"

	"vlt/internal/asm"
	"vlt/internal/isa"
)

// Coverage for the remaining scalar and vector opcodes, and for the
// functional runner's failure modes.

func TestScalarLogicAndShifts(t *testing.T) {
	b := asm.NewBuilder("logic")
	b.MovI(isa.R(1), 0b1100)
	b.MovI(isa.R(2), 0b1010)
	b.And(isa.R(3), isa.R(1), isa.R(2)) // 0b1000
	b.Or(isa.R(4), isa.R(1), isa.R(2))  // 0b1110
	b.Xor(isa.R(5), isa.R(1), isa.R(2)) // 0b0110
	b.Sll(isa.R(6), isa.R(1), isa.R(2)) // 12 << 10
	b.Srl(isa.R(7), isa.R(1), isa.R(2)) // 12 >> 10 = 0
	b.MovI(isa.R(8), -8)
	b.SraI(isa.R(9), isa.R(8), 2)         // -2
	b.Sltu(isa.R(10), isa.R(8), isa.R(1)) // unsigned: huge > 12 -> 0
	b.Seq(isa.R(11), isa.R(1), isa.R(1))  // 1
	b.RemI(isa.R(12), isa.R(1), 5)        // 2
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	th := v.Thread(0)
	want := map[int]int64{3: 8, 4: 14, 5: 6, 6: 12 << 10, 7: 0, 9: -2, 10: 0, 11: 1, 12: 2}
	for r, w := range want {
		if got := int64(th.IntRegs[r]); got != w {
			t.Errorf("r%d = %d, want %d", r, got, w)
		}
	}
}

func TestScalarFPExtras(t *testing.T) {
	b := asm.NewBuilder("fpx")
	b.FMovI(isa.F(1), -3.5)
	b.FMovI(isa.F(2), 2.0)
	b.FSub(isa.F(3), isa.F(1), isa.F(2)) // -5.5
	b.FNeg(isa.F(4), isa.F(1))           // 3.5
	b.FAbs(isa.F(5), isa.F(1))           // 3.5
	b.FMin(isa.F(6), isa.F(1), isa.F(2)) // -3.5
	b.FMax(isa.F(7), isa.F(1), isa.F(2)) // 2.0
	b.FMov(isa.F(8), isa.F(7))
	b.FLe(isa.R(1), isa.F(1), isa.F(1))                                              // 1
	b.Emit(isa.Instruction{Op: isa.OpFEq, Rd: isa.R(2), Ra: isa.F(1), Rb: isa.F(2)}) // 0
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	th := v.Thread(0)
	if th.FPRegs[3] != -5.5 || th.FPRegs[4] != 3.5 || th.FPRegs[5] != 3.5 {
		t.Errorf("fsub/fneg/fabs wrong: %v %v %v", th.FPRegs[3], th.FPRegs[4], th.FPRegs[5])
	}
	if th.FPRegs[6] != -3.5 || th.FPRegs[7] != 2.0 || th.FPRegs[8] != 2.0 {
		t.Errorf("fmin/fmax/fmov wrong: %v %v %v", th.FPRegs[6], th.FPRegs[7], th.FPRegs[8])
	}
	if th.IntRegs[1] != 1 || th.IntRegs[2] != 0 {
		t.Errorf("fle/feq wrong: %d %d", th.IntRegs[1], th.IntRegs[2])
	}
}

func TestVectorIntOpsFull(t *testing.T) {
	b := asm.NewBuilder("vints")
	x := b.Data("x", []uint64{12, 7, 3, 100})
	y := b.Data("y", []uint64{10, 7, 5, 1})
	b.MovI(isa.R(1), 4)
	b.SetVL(isa.R(2), isa.R(1))
	b.MovA(isa.R(3), x)
	b.MovA(isa.R(4), y)
	b.VLd(isa.V(1), isa.R(3))
	b.VLd(isa.V(2), isa.R(4))
	b.VSub(isa.V(3), isa.V(1), isa.V(2))
	b.VAnd(isa.V(4), isa.V(1), isa.V(2))
	b.VOr(isa.V(5), isa.V(1), isa.V(2))
	b.VXor(isa.V(6), isa.V(1), isa.V(2))
	b.VMax(isa.V(7), isa.V(1), isa.V(2))
	b.VMin(isa.V(8), isa.V(1), isa.V(2))
	b.MovI(isa.R(5), 2)
	b.VSllS(isa.V(9), isa.V(1), isa.R(5))
	b.VSrlS(isa.V(10), isa.V(1), isa.R(5))
	b.VMov(isa.V(11), isa.V(1))
	b.VRedMax(isa.R(6), isa.V(1))
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	th := v.Thread(0)
	check := func(vr int, want []uint64) {
		for i, w := range want {
			if th.VecRegs[vr][i] != w {
				t.Errorf("v%d[%d] = %d, want %d", vr, i, th.VecRegs[vr][i], w)
			}
		}
	}
	check(3, []uint64{2, 0, ^uint64(1), 99})
	check(4, []uint64{8, 7, 1, 0})
	check(5, []uint64{14, 7, 7, 101})
	check(6, []uint64{6, 0, 6, 101})
	check(7, []uint64{12, 7, 5, 100})
	check(8, []uint64{10, 7, 3, 1})
	check(9, []uint64{48, 28, 12, 400})
	check(10, []uint64{3, 1, 0, 25})
	check(11, []uint64{12, 7, 3, 100})
	if th.IntRegs[6] != 100 {
		t.Errorf("vredmax = %d, want 100", th.IntRegs[6])
	}
}

func TestVectorFPOpsFull(t *testing.T) {
	b := asm.NewBuilder("vfps")
	x := b.DataF("x", []float64{4, 9, 16, 25})
	b.MovI(isa.R(1), 4)
	b.SetVL(isa.R(2), isa.R(1))
	b.MovA(isa.R(3), x)
	b.VLd(isa.V(1), isa.R(3))
	b.FMovI(isa.F(1), 2)
	b.VBcastF(isa.V(2), isa.F(1))
	b.VFSub(isa.V(3), isa.V(1), isa.V(2))           // 2 7 14 23
	b.VFDiv(isa.V(4), isa.V(1), isa.V(2))           // 2 4.5 8 12.5
	b.VFAddS(isa.V(5), isa.V(1), isa.F(1))          // 6 11 18 27
	b.VFMulS(isa.V(6), isa.V(1), isa.F(1))          // 8 18 32 50
	b.VFMAS(isa.V(7), isa.V(1), isa.F(1), isa.V(1)) // x*2+x = 3x
	b.VFRedMax(isa.F(2), isa.V(1))                  // 25
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	th := v.Thread(0)
	checkF := func(vr int, want []float64) {
		for i, w := range want {
			if got := math.Float64frombits(th.VecRegs[vr][i]); got != w {
				t.Errorf("v%d[%d] = %v, want %v", vr, i, got, w)
			}
		}
	}
	checkF(3, []float64{2, 7, 14, 23})
	checkF(4, []float64{2, 4.5, 8, 12.5})
	checkF(5, []float64{6, 11, 18, 27})
	checkF(6, []float64{8, 18, 32, 50})
	checkF(7, []float64{12, 27, 48, 75})
	if th.FPRegs[2] != 25 {
		t.Errorf("vfredmax = %v, want 25", th.FPRegs[2])
	}
}

func TestBranchVariants(t *testing.T) {
	b := asm.NewBuilder("br")
	b.MovI(isa.R(1), -1) // signed -1 = unsigned max
	b.MovI(isa.R(2), 1)
	l1 := b.NewLabel("l1")
	l2 := b.NewLabel("l2")
	// signed: -1 < 1 -> taken
	b.Blt(isa.R(1), isa.R(2), l1)
	b.MovI(isa.R(10), 111) // skipped
	b.Bind(l1)
	// unsigned: max < 1 is false -> not taken
	b.Bltu(isa.R(1), isa.R(2), l2)
	b.MovI(isa.R(11), 222) // executed
	b.Bind(l2)
	// bge signed: 1 >= -1 -> taken
	l3 := b.NewLabel("l3")
	b.Bge(isa.R(2), isa.R(1), l3)
	b.MovI(isa.R(12), 333) // skipped
	b.Bind(l3)
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	th := v.Thread(0)
	if th.IntRegs[10] != 0 || th.IntRegs[11] != 222 || th.IntRegs[12] != 0 {
		t.Errorf("branch variants wrong: %d %d %d", th.IntRegs[10], th.IntRegs[11], th.IntRegs[12])
	}
}

func TestVLZeroVectorOpsAreNoops(t *testing.T) {
	b := asm.NewBuilder("vl0")
	out := b.Alloc("out", 4)
	b.MovI(isa.R(1), 4)
	b.SetVL(isa.R(2), isa.R(1))
	b.MovI(isa.R(3), 9)
	b.VBcastI(isa.V(1), isa.R(3))
	b.MovI(isa.R(1), 0)
	b.SetVL(isa.R(2), isa.R(1)) // VL = 0
	b.MovA(isa.R(4), out)
	b.VSt(isa.V(1), isa.R(4))     // stores nothing
	b.VRedSum(isa.R(5), isa.V(1)) // sums nothing
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	if got := v.Mem.MustRead(out); got != 0 {
		t.Errorf("VL=0 store wrote memory: %d", got)
	}
	if got := v.Thread(0).IntRegs[5]; got != 0 {
		t.Errorf("VL=0 redsum = %d, want 0", got)
	}
}

func TestMisalignedVectorAccessFaults(t *testing.T) {
	b := asm.NewBuilder("mis")
	b.MovI(isa.R(1), 4)
	b.SetVL(isa.R(2), isa.R(1))
	b.MovI(isa.R(3), 12345) // not 8-aligned
	b.VLd(isa.V(1), isa.R(3))
	b.Halt()
	v := mustVM(t, b, 1)
	err := v.RunFunctional(0)
	if err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("expected misalignment fault, got %v", err)
	}
}

func TestInfiniteLoopHitsStepBudget(t *testing.T) {
	b := asm.NewBuilder("spin")
	l := b.NewLabel("l")
	b.Bind(l)
	b.J(l)
	b.Halt()
	v := mustVM(t, b, 1)
	if err := v.RunFunctional(10000); err == nil {
		t.Fatal("expected step-budget error")
	}
}

func TestBarrierWithEarlyHaltedThreadReleases(t *testing.T) {
	// Thread 1 halts without reaching the barrier; thread 0's barrier
	// must still release (halted threads count as arrived).
	b := asm.NewBuilder("earlyhalt")
	done := b.NewLabel("done")
	b.Bne(asm.RegTID, asm.RegZero, done) // thread 1 -> halt immediately
	b.Bar()
	b.MovI(isa.R(1), 42)
	b.Bind(done)
	b.Halt()
	v := mustVM(t, b, 2)
	run(t, v)
	if got := v.Thread(0).IntRegs[1]; got != 42 {
		t.Errorf("thread 0 did not pass the barrier: r1=%d", got)
	}
}

func TestPartitionsScaleMaxVLTable(t *testing.T) {
	cases := map[int]int{1: 64, 2: 32, 3: 21, 4: 16, 6: 10, 8: 8}
	for parts, want := range cases {
		b := asm.NewBuilder("p")
		b.Halt()
		v := mustVM(t, b, 1)
		v.Partitions = parts
		if got := v.MaxVL(); got != want {
			t.Errorf("partitions=%d: MaxVL=%d, want %d", parts, got, want)
		}
	}
}

func TestJalRecordsReturnAddress(t *testing.T) {
	b := asm.NewBuilder("jal")
	fn := b.NewLabel("fn")
	b.Jal(isa.R(31), fn) // pc 0 -> link = 1
	b.Halt()             // pc 1
	b.Bind(fn)
	b.Mov(isa.R(1), isa.R(31))
	b.Jr(isa.R(31))
	v := mustVM(t, b, 1)
	run(t, v)
	if got := v.Thread(0).IntRegs[1]; got != 1 {
		t.Errorf("link register = %d, want 1", got)
	}
}

func TestPCOutOfRangeFaults(t *testing.T) {
	b := asm.NewBuilder("badpc")
	b.Nop()
	b.Halt()
	p := b.MustAssemble()
	// Rewrite the nop into a jump to an out-of-range instruction index.
	p.Code[0] = isa.Instruction{Op: isa.OpJ, Imm: 1000}
	v, err := New(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Step(0); err != nil {
		t.Fatal(err) // the jump itself executes
	}
	if _, err := v.Step(0); err == nil {
		t.Fatal("expected PC-out-of-range fault")
	}
}

func TestOpStatsPercentVectEmpty(t *testing.T) {
	var s OpStats
	if s.PercentVect() != 0 || s.AvgVL() != 0 {
		t.Error("empty stats should report zeros")
	}
	if got := s.CommonVLs(3); len(got) != 0 {
		t.Errorf("empty CommonVLs = %v", got)
	}
}

func TestVectorLoadCrossesPageBoundary(t *testing.T) {
	// pageWords = 4096 words = 32 KB: place a vector access straddling
	// the boundary between two pages.
	b := asm.NewBuilder("cross")
	b.MovI(isa.R(1), 16)
	b.SetVL(isa.R(2), isa.R(1))
	b.VIota(isa.V(1))
	base := int64(pageWords*8 - 8*8) // 8 words before the page boundary
	b.MovI(isa.R(3), base)
	b.VSt(isa.V(1), isa.R(3))
	b.VLd(isa.V(2), isa.R(3))
	b.VRedSum(isa.R(4), isa.V(2))
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	if got := v.Thread(0).IntRegs[4]; got != 120 { // sum 0..15
		t.Errorf("cross-page redsum = %d, want 120", got)
	}
	if v.Mem.PageCount() < 2 {
		t.Errorf("expected at least 2 pages, got %d", v.Mem.PageCount())
	}
}

func TestStridedStoreAndGatherAcrossPages(t *testing.T) {
	b := asm.NewBuilder("stride")
	b.MovI(isa.R(1), 8)
	b.SetVL(isa.R(2), isa.R(1))
	b.VIota(isa.V(1))
	b.MovI(isa.R(3), 0)
	b.MovI(isa.R(4), int64(pageWords*8)) // one page stride: each element a new page
	b.VStS(isa.V(1), isa.R(3), isa.R(4))
	b.VLdS(isa.V(2), isa.R(3), isa.R(4))
	b.VRedSum(isa.R(5), isa.V(2))
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	if got := v.Thread(0).IntRegs[5]; got != 28 { // 0..7
		t.Errorf("strided redsum = %d, want 28", got)
	}
	if v.Mem.PageCount() < 8 {
		t.Errorf("expected 8 pages, got %d", v.Mem.PageCount())
	}
}
