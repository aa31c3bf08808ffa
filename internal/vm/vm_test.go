package vm

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"vlt/internal/asm"
	"vlt/internal/isa"
)

func mustVM(t *testing.T, b *asm.Builder, threads int) *VM {
	t.Helper()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(p, threads)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func run(t *testing.T, v *VM) {
	t.Helper()
	if err := v.RunFunctional(0); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryAlignmentAndZeroFill(t *testing.T) {
	m := NewMemory()
	if _, err := m.ReadWord(7); err == nil {
		t.Error("misaligned read: expected error")
	}
	if err := m.WriteWord(9, 1); err == nil {
		t.Error("misaligned write: expected error")
	}
	if v := m.MustRead(0x123450); v != 0 {
		t.Errorf("unbacked memory read %d, want 0", v)
	}
	m.MustWrite(64, 42)
	if v := m.MustRead(64); v != 42 {
		t.Errorf("read-back %d, want 42", v)
	}
}

func TestMemoryReadWriteWordsQuick(t *testing.T) {
	f := func(vals []uint64, pageOffset uint16) bool {
		if len(vals) > 512 {
			vals = vals[:512]
		}
		m := NewMemory()
		base := uint64(pageOffset) * 8
		if err := m.WriteWords(base, vals); err != nil {
			return false
		}
		back, err := m.ReadWords(base, len(vals))
		if err != nil {
			return false
		}
		for i := range vals {
			if back[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestScalarArithmetic(t *testing.T) {
	b := asm.NewBuilder("alu")
	b.MovI(isa.R(1), 10)
	b.MovI(isa.R(2), -3)
	b.Add(isa.R(3), isa.R(1), isa.R(2))  // 7
	b.Sub(isa.R(4), isa.R(1), isa.R(2))  // 13
	b.Mul(isa.R(5), isa.R(1), isa.R(2))  // -30
	b.Div(isa.R(6), isa.R(1), isa.R(2))  // -3
	b.Rem(isa.R(7), isa.R(1), isa.R(2))  // 1
	b.Slt(isa.R(8), isa.R(2), isa.R(1))  // 1 (signed)
	b.SltI(isa.R(9), isa.R(1), 5)        // 0
	b.AddI(isa.R(10), isa.R(0), 123)     // r0 is zero
	b.MovI(isa.R(0), 999)                // write to r0 discarded
	b.Add(isa.R(11), isa.R(0), isa.R(0)) // 0
	b.SllI(isa.R(12), isa.R(1), 3)       // 80
	b.SraI(isa.R(13), isa.R(2), 1)       // -2
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	th := v.Thread(0)
	want := map[int]int64{3: 7, 4: 13, 5: -30, 6: -3, 7: 1, 8: 1, 9: 0, 10: 123, 11: 0, 12: 80, 13: -2}
	for r, w := range want {
		if got := int64(th.IntRegs[r]); got != w {
			t.Errorf("r%d = %d, want %d", r, got, w)
		}
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	b := asm.NewBuilder("div0")
	b.MovI(isa.R(1), 5)
	b.Div(isa.R(2), isa.R(1), isa.R(0))
	b.Halt()
	v := mustVM(t, b, 1)
	if err := v.RunFunctional(0); err == nil {
		t.Fatal("expected divide-by-zero fault")
	}
}

func TestFloatingPoint(t *testing.T) {
	b := asm.NewBuilder("fp")
	b.FMovI(isa.F(1), 2.0)
	b.FMovI(isa.F(2), 0.5)
	b.FAdd(isa.F(3), isa.F(1), isa.F(2))
	b.FMul(isa.F(4), isa.F(1), isa.F(2))
	b.FDiv(isa.F(5), isa.F(1), isa.F(2))
	b.FSqrt(isa.F(6), isa.F(1))
	b.MovI(isa.R(1), -9)
	b.CvtIF(isa.F(7), isa.R(1))
	b.CvtFI(isa.R(2), isa.F(5))
	b.FLt(isa.R(3), isa.F(2), isa.F(1))
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	th := v.Thread(0)
	if th.FPRegs[3] != 2.5 || th.FPRegs[4] != 1.0 || th.FPRegs[5] != 4.0 {
		t.Errorf("fp arith wrong: %v %v %v", th.FPRegs[3], th.FPRegs[4], th.FPRegs[5])
	}
	if th.FPRegs[6] != math.Sqrt(2) || th.FPRegs[7] != -9.0 {
		t.Errorf("sqrt/cvt wrong: %v %v", th.FPRegs[6], th.FPRegs[7])
	}
	if th.IntRegs[2] != 4 || th.IntRegs[3] != 1 {
		t.Errorf("cvtfi/flt wrong: %d %d", th.IntRegs[2], th.IntRegs[3])
	}
}

func TestBranchLoop(t *testing.T) {
	// sum 1..10 via a loop
	b := asm.NewBuilder("loop")
	b.MovI(isa.R(1), 10)
	b.MovI(isa.R(2), 0)
	loop := b.NewLabel("loop")
	b.Bind(loop)
	b.Add(isa.R(2), isa.R(2), isa.R(1))
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), asm.RegZero, loop)
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	if got := v.Thread(0).IntRegs[2]; got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestJalJr(t *testing.T) {
	b := asm.NewBuilder("call")
	fn := b.NewLabel("fn")
	b.MovI(isa.R(1), 5)
	b.Jal(isa.R(31), fn)
	b.AddI(isa.R(3), isa.R(2), 100) // executes after return
	b.Halt()
	b.Bind(fn)
	b.MulI(isa.R(2), isa.R(1), 3)
	b.Jr(isa.R(31))
	v := mustVM(t, b, 1)
	run(t, v)
	if got := v.Thread(0).IntRegs[3]; got != 115 {
		t.Errorf("r3 = %d, want 115", got)
	}
}

func TestScalarMemory(t *testing.T) {
	b := asm.NewBuilder("mem")
	arr := b.Data("arr", []uint64{11, 22, 33})
	b.MovA(isa.R(1), arr)
	b.Ld(isa.R(2), isa.R(1), 8) // 22
	b.AddI(isa.R(2), isa.R(2), 1)
	b.St(isa.R(2), isa.R(1), 16) // arr[2] = 23
	b.FMovI(isa.F(1), 3.25)
	b.FSt(isa.F(1), isa.R(1), 0)
	b.FLd(isa.F(2), isa.R(1), 0)
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	if got := v.Mem.MustRead(arr + 16); got != 23 {
		t.Errorf("arr[2] = %d, want 23", got)
	}
	if got := v.Thread(0).FPRegs[2]; got != 3.25 {
		t.Errorf("f2 = %v, want 3.25", got)
	}
}

func TestVectorBasics(t *testing.T) {
	b := asm.NewBuilder("vec")
	a := b.Data("a", []uint64{1, 2, 3, 4, 5, 6, 7, 8})
	c := b.Alloc("c", 8)
	b.MovI(isa.R(1), 8)
	b.SetVL(isa.R(2), isa.R(1))
	b.MovA(isa.R(3), a)
	b.VLd(isa.V(1), isa.R(3))
	b.VAddS(isa.V(2), isa.V(1), isa.R(1)) // +8 each
	b.MovA(isa.R(4), c)
	b.VSt(isa.V(2), isa.R(4))
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	for i := 0; i < 8; i++ {
		want := uint64(i + 1 + 8)
		if got := v.Mem.MustRead(c + uint64(i)*8); got != want {
			t.Errorf("c[%d] = %d, want %d", i, got, want)
		}
	}
	if v.Thread(0).IntRegs[2] != 8 {
		t.Errorf("setvl result = %d, want 8", v.Thread(0).IntRegs[2])
	}
}

func TestSetVLClampsToMaxVL(t *testing.T) {
	b := asm.NewBuilder("clamp")
	b.MovI(isa.R(1), 1000)
	b.SetVL(isa.R(2), isa.R(1))
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	if got := v.Thread(0).VL; got != isa.MaxVL {
		t.Errorf("VL = %d, want %d", got, isa.MaxVL)
	}
}

func TestVltCfgReducesMaxVL(t *testing.T) {
	b := asm.NewBuilder("cfg")
	b.VltCfg(4)
	b.MovI(isa.R(1), 1000)
	b.SetVL(isa.R(2), isa.R(1))
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	if got := v.Thread(0).VL; got != isa.MaxVL/4 {
		t.Errorf("VL = %d, want %d", got, isa.MaxVL/4)
	}
	if v.Partitions != 4 {
		t.Errorf("Partitions = %d, want 4", v.Partitions)
	}
}

// TestVltCfgInvalid: the VM checks only the range 1..isa.MaxVL, the
// bound that keeps MaxVL() at 1 or more; which counts a machine's lanes
// split into is vcl.CheckPartitions' rule, not the VM's.
func TestVltCfgInvalid(t *testing.T) {
	for _, n := range []int64{0, isa.MaxVL + 1} {
		b := asm.NewBuilder("cfgbad")
		b.VltCfg(n)
		b.Halt()
		v := mustVM(t, b, 1)
		err := v.RunFunctional(0)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("invalid partition count %d", n)) {
			t.Errorf("vltcfg %d: err = %v, want an invalid partition count fault", n, err)
		}
	}
}

func TestVectorStridedAndIndexed(t *testing.T) {
	b := asm.NewBuilder("vmem")
	// 4x4 row-major matrix; load column 1 with stride, then gather it
	// with an index vector and scatter doubles back.
	m := b.Data("m", []uint64{
		0, 1, 2, 3,
		10, 11, 12, 13,
		20, 21, 22, 23,
		30, 31, 32, 33,
	})
	out := b.Alloc("out", 4)
	b.MovI(isa.R(1), 4)
	b.SetVL(isa.R(2), isa.R(1))
	b.MovA(isa.R(3), m+8) // &m[0][1]
	b.MovI(isa.R(4), 32)  // row stride in bytes
	b.VLdS(isa.V(1), isa.R(3), isa.R(4))
	// index vector: byte offsets of column 1: {8, 40, 72, 104}
	b.VIota(isa.V(2))
	b.MovI(isa.R(5), 32)
	b.VMulS(isa.V(2), isa.V(2), isa.R(5))
	b.MovI(isa.R(6), 8)
	b.VAddS(isa.V(2), isa.V(2), isa.R(6))
	b.MovA(isa.R(7), m)
	b.VLdX(isa.V(3), isa.R(7), isa.V(2)) // same column via gather
	b.VAdd(isa.V(4), isa.V(1), isa.V(3)) // double
	b.MovA(isa.R(8), out)
	b.VSt(isa.V(4), isa.R(8))
	b.VStX(isa.V(4), isa.R(7), isa.V(2)) // scatter back
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	wantCol := []uint64{1, 11, 21, 31}
	for i, w := range wantCol {
		if got := v.Mem.MustRead(out + uint64(i)*8); got != 2*w {
			t.Errorf("out[%d] = %d, want %d", i, got, 2*w)
		}
		if got := v.Mem.MustRead(m + uint64(i)*32 + 8); got != 2*w {
			t.Errorf("scattered m[%d][1] = %d, want %d", i, got, 2*w)
		}
	}
}

func TestVectorFPAndReductions(t *testing.T) {
	b := asm.NewBuilder("vfp")
	x := b.DataF("x", []float64{1, 2, 3, 4})
	y := b.DataF("y", []float64{10, 20, 30, 40})
	b.MovI(isa.R(1), 4)
	b.SetVL(isa.R(2), isa.R(1))
	b.MovA(isa.R(3), x)
	b.MovA(isa.R(4), y)
	b.VLd(isa.V(1), isa.R(3))
	b.VLd(isa.V(2), isa.R(4))
	b.VFMA(isa.V(3), isa.V(1), isa.V(2), isa.V(2)) // x*y + y
	b.VFRedSum(isa.F(1), isa.V(3))                 // sum = 10+20+30+40 + 10+40+90+160 = 400
	b.VFRedMax(isa.F(2), isa.V(3))                 // 200
	b.VRedSum(isa.R(5), isa.V(0))                  // VL ints of garbage? V0 zero -> 0
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	th := v.Thread(0)
	if th.FPRegs[1] != 400 {
		t.Errorf("vfredsum = %v, want 400", th.FPRegs[1])
	}
	if th.FPRegs[2] != 200 {
		t.Errorf("vfredmax = %v, want 200", th.FPRegs[2])
	}
	if th.IntRegs[5] != 0 {
		t.Errorf("vredsum of zero reg = %d", th.IntRegs[5])
	}
}

func TestVectorTailElementsUnchanged(t *testing.T) {
	b := asm.NewBuilder("tail")
	b.MovI(isa.R(1), 8)
	b.SetVL(isa.R(2), isa.R(1))
	b.MovI(isa.R(3), 7)
	b.VBcastI(isa.V(1), isa.R(3)) // v1[0..7] = 7
	b.MovI(isa.R(1), 4)
	b.SetVL(isa.R(2), isa.R(1))
	b.MovI(isa.R(3), 9)
	b.VBcastI(isa.V(1), isa.R(3)) // v1[0..3] = 9, [4..7] still 7
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	th := v.Thread(0)
	for i := 0; i < 4; i++ {
		if th.VecRegs[1][i] != 9 {
			t.Errorf("v1[%d] = %d, want 9", i, th.VecRegs[1][i])
		}
	}
	for i := 4; i < 8; i++ {
		if th.VecRegs[1][i] != 7 {
			t.Errorf("v1[%d] = %d, want 7", i, th.VecRegs[1][i])
		}
	}
}

func TestThreadIDsAndBarrier(t *testing.T) {
	// Each thread stores its TID into slot TID, then after a barrier
	// thread 0 sums all slots.
	b := asm.NewBuilder("tids")
	slots := b.Alloc("slots", 8)
	sum := b.Alloc("sum", 1)
	b.MovA(isa.R(1), slots)
	b.SllI(isa.R(2), asm.RegTID, 3)
	b.Add(isa.R(1), isa.R(1), isa.R(2))
	b.St(asm.RegTID, isa.R(1), 0)
	b.Bar()
	done := b.NewLabel("done")
	b.Bne(asm.RegTID, asm.RegZero, done)
	// thread 0: sum
	b.MovA(isa.R(3), slots)
	b.MovI(isa.R(4), 0) // acc
	b.MovI(isa.R(5), 0) // i
	loop := b.NewLabel("loop")
	b.Bind(loop)
	b.Ld(isa.R(6), isa.R(3), 0)
	b.Add(isa.R(4), isa.R(4), isa.R(6))
	b.AddI(isa.R(3), isa.R(3), 8)
	b.AddI(isa.R(5), isa.R(5), 1)
	b.Blt(isa.R(5), asm.RegNTH, loop)
	b.MovA(isa.R(7), sum)
	b.St(isa.R(4), isa.R(7), 0)
	b.Bind(done)
	b.Halt()
	v := mustVM(t, b, 4)
	run(t, v)
	if got := v.Mem.MustRead(sum); got != 0+1+2+3 {
		t.Errorf("sum = %d, want 6", got)
	}
}

func TestOpStats(t *testing.T) {
	b := asm.NewBuilder("stats")
	b.Mark(1)
	b.MovI(isa.R(1), 16)
	b.SetVL(isa.R(2), isa.R(1))
	b.VIota(isa.V(1))
	b.VAdd(isa.V(2), isa.V(1), isa.V(1))
	b.Mark(0)
	b.MovI(isa.R(3), 4)
	b.SetVL(isa.R(2), isa.R(3))
	b.VIota(isa.V(3))
	b.Halt()
	v := mustVM(t, b, 1)
	run(t, v)
	s := &v.Stats
	// Two MARKs, two MOVIs, two SETVLs and the HALT.
	if s.ScalarInstrs != 7 {
		t.Errorf("ScalarInstrs = %d, want 7", s.ScalarInstrs)
	}
	if s.VecInstrs != 3 {
		t.Errorf("VecInstrs = %d, want 3", s.VecInstrs)
	}
	if s.VecElemOps != 36 {
		t.Errorf("VecElemOps = %d, want 36", s.VecElemOps)
	}
	if got := s.AvgVL(); got != 12 {
		t.Errorf("AvgVL = %v, want 12", got)
	}
	common := s.CommonVLs(2)
	if len(common) != 2 || common[0] != 16 || common[1] != 4 {
		t.Errorf("CommonVLs = %v, want [16 4]", common)
	}
	if s.VLHist[16] != 2 || s.VLHist[4] != 1 {
		t.Errorf("VLHist[16], VLHist[4] = %d, %d, want 2, 1", s.VLHist[16], s.VLHist[4])
	}
	if got := s.PercentVect(); got != 100*36.0/43 {
		t.Errorf("PercentVect = %v, want %v", got, 100*36.0/43)
	}
}

func TestStepAfterHaltErrors(t *testing.T) {
	b := asm.NewBuilder("halted")
	b.Halt()
	v := mustVM(t, b, 1)
	if _, err := v.Step(0); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Step(0); err == nil {
		t.Fatal("expected error stepping a halted thread")
	}
}

func TestDynRecords(t *testing.T) {
	b := asm.NewBuilder("dyn")
	skip := b.NewLabel("skip")
	b.MovI(isa.R(1), 1)
	b.Beq(isa.R(1), asm.RegZero, skip) // not taken
	b.Bne(isa.R(1), asm.RegZero, skip) // taken
	b.Nop()
	b.Bind(skip)
	b.Halt()
	v := mustVM(t, b, 1)
	d0, _ := v.Step(0)
	if d0.Branch || d0.Seq != 0 || d0.NextPC != 1 {
		t.Errorf("movi dyn wrong: %+v", d0)
	}
	d1, _ := v.Step(0)
	if !d1.Branch || d1.Taken || d1.NextPC != 2 {
		t.Errorf("beq dyn wrong: %+v", d1)
	}
	d2, _ := v.Step(0)
	if !d2.Branch || !d2.Taken || d2.NextPC != 4 {
		t.Errorf("bne dyn wrong: %+v", d2)
	}
	d3, _ := v.Step(0)
	if !d3.IsHalt {
		t.Errorf("halt dyn wrong: %+v", d3)
	}
}

// Property: vector add equals elementwise scalar add for random inputs.
func TestVectorAddMatchesScalarQuick(t *testing.T) {
	f := func(xs, ys [8]uint64) bool {
		b := asm.NewBuilder("q")
		ax := b.Data("x", xs[:])
		ay := b.Data("y", ys[:])
		az := b.Alloc("z", 8)
		b.MovI(isa.R(1), 8)
		b.SetVL(isa.R(2), isa.R(1))
		b.MovA(isa.R(3), ax)
		b.MovA(isa.R(4), ay)
		b.MovA(isa.R(5), az)
		b.VLd(isa.V(1), isa.R(3))
		b.VLd(isa.V(2), isa.R(4))
		b.VAdd(isa.V(3), isa.V(1), isa.V(2))
		b.VSt(isa.V(3), isa.R(5))
		b.Halt()
		p, err := b.Assemble()
		if err != nil {
			return false
		}
		v, err := New(p, 1)
		if err != nil {
			return false
		}
		if err := v.RunFunctional(0); err != nil {
			return false
		}
		for i := range xs {
			if v.Mem.MustRead(az+uint64(i)*8) != xs[i]+ys[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
