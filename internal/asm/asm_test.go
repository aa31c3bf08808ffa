package asm

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"vlt/internal/isa"
)

func TestLabelResolution(t *testing.T) {
	b := NewBuilder("labels")
	loop := b.NewLabel("loop")
	done := b.NewLabel("done")
	b.MovI(isa.R(1), 10) // 0
	b.Bind(loop)         // index 1
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Beq(isa.R(1), RegZero, done)
	b.J(loop)
	b.Bind(done)
	b.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[2].Imm != 4 {
		t.Errorf("beq target = %d, want 4", p.Code[2].Imm)
	}
	if p.Code[3].Imm != 1 {
		t.Errorf("j target = %d, want 1", p.Code[3].Imm)
	}
}

func TestUnboundLabel(t *testing.T) {
	b := NewBuilder("bad")
	l := b.NewLabel("nowhere")
	b.J(l)
	b.Halt()
	if _, err := b.Assemble(); err == nil || !strings.Contains(err.Error(), "unbound") {
		t.Fatalf("expected unbound-label error, got %v", err)
	}
}

func TestDoubleBind(t *testing.T) {
	b := NewBuilder("bad")
	l := b.NewLabel("x")
	b.Bind(l)
	b.Bind(l)
	b.Halt()
	if _, err := b.Assemble(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("expected double-bind error, got %v", err)
	}
}

func TestMissingHalt(t *testing.T) {
	b := NewBuilder("bad")
	b.Nop()
	if _, err := b.Assemble(); err == nil || !strings.Contains(err.Error(), "halt") {
		t.Fatalf("expected missing-halt error, got %v", err)
	}
}

func TestDataAllocationAlignmentAndDisjointness(t *testing.T) {
	b := NewBuilder("data")
	a1 := b.Alloc("a", 3)
	a2 := b.Data("b", []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	a3 := b.DataF("c", []float64{1.5})
	b.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []uint64{a1, a2, a3} {
		if a%64 != 0 {
			t.Errorf("allocation at %#x not 64-byte aligned", a)
		}
	}
	if a2 <= a1 || a3 <= a2 {
		t.Errorf("allocations not increasing: %#x %#x %#x", a1, a2, a3)
	}
	if a2-a1 < 3*8 || a3-a2 < 9*8 {
		t.Errorf("allocations overlap: %#x %#x %#x", a1, a2, a3)
	}
	if p.Symbol("a") != a1 || p.Symbol("b") != a2 || p.Symbol("c") != a3 {
		t.Errorf("symbol table mismatch")
	}
	if p.Segments[2].Words[0] != math.Float64bits(1.5) {
		t.Errorf("DataF encoding wrong")
	}
	if p.DataEnd() <= a3 {
		t.Errorf("DataEnd %#x not past last allocation %#x", p.DataEnd(), a3)
	}
}

func TestDuplicateSymbol(t *testing.T) {
	b := NewBuilder("dup")
	b.Alloc("x", 1)
	b.Alloc("x", 1)
	b.Halt()
	if _, err := b.Assemble(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("expected duplicate-symbol error, got %v", err)
	}
}

func TestUnknownSymbolPanics(t *testing.T) {
	b := NewBuilder("sym")
	b.Halt()
	p := b.MustAssemble()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on unknown symbol")
		}
	}()
	p.Symbol("missing")
}

// Property: for arbitrary allocation size sequences, all allocations are
// aligned, non-overlapping, and DataEnd covers them all.
func TestAllocationInvariantsQuick(t *testing.T) {
	f := func(sizes []uint8) bool {
		b := NewBuilder("q")
		type alloc struct{ addr, size uint64 }
		var allocs []alloc
		for i, s := range sizes {
			n := int(s) % 100
			addr := b.Alloc(string(rune('a'+i%26))+strings.Repeat("x", i/26), n)
			allocs = append(allocs, alloc{addr, uint64(n) * 8})
		}
		b.Halt()
		p, err := b.Assemble()
		if err != nil {
			return false
		}
		for i, a := range allocs {
			if a.addr%64 != 0 {
				return false
			}
			if i > 0 {
				prev := allocs[i-1]
				if a.addr < prev.addr+prev.size {
					return false
				}
			}
			if a.addr+a.size > p.DataEnd() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSugarEmitsExpectedOpcodes(t *testing.T) {
	b := NewBuilder("sugar")
	b.Add(isa.R(1), isa.R(2), isa.R(3))
	b.AddI(isa.R(1), isa.R(2), 7)
	b.FMovI(isa.F(1), 2.5)
	b.VFMAS(isa.V(1), isa.V(2), isa.F(3), isa.V(4))
	b.VLdX(isa.V(5), isa.R(6), isa.V(7))
	b.Mark(3)
	b.VltCfg(4)
	b.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Op != isa.OpAdd || p.Code[0].HasImm {
		t.Errorf("Add wrong: %+v", p.Code[0])
	}
	if p.Code[1].Op != isa.OpAdd || !p.Code[1].HasImm || p.Code[1].Imm != 7 {
		t.Errorf("AddI wrong: %+v", p.Code[1])
	}
	if p.Code[2].Op != isa.OpFMovI || math.Float64frombits(uint64(p.Code[2].Imm)) != 2.5 {
		t.Errorf("FMovI wrong: %+v", p.Code[2])
	}
	if p.Code[3].Op != isa.OpVFMA || !p.Code[3].BScalar {
		t.Errorf("VFMAS wrong: %+v", p.Code[3])
	}
	if p.Code[4].Op != isa.OpVLdX || p.Code[4].Rb != isa.V(7) {
		t.Errorf("VLdX wrong: %+v", p.Code[4])
	}
	if p.Code[5].Op != isa.OpMark || p.Code[5].Imm != 3 {
		t.Errorf("Mark wrong: %+v", p.Code[5])
	}
	if p.Code[6].Op != isa.OpVltCfg || p.Code[6].Imm != 4 {
		t.Errorf("VltCfg wrong: %+v", p.Code[6])
	}
}

// TestVectorFree: one instruction the vector unit executes or
// configures makes a program vector-free no longer; scalar ALU, FP,
// memory, branch, bar, mark and halt keep it vector-free.
func TestVectorFree(t *testing.T) {
	const scalar = `
.alloc buf 2
    movi r1, &buf
    add r2, r1, r1
    mul r3, r2, r2
    fmovi f1, 1.5
    fadd f2, f1, f1
    ld r4, 0(r1)
    st r4, 8(r1)
    fst f2, 0(r1)
    mark 1
    bar
    beq r4, r0, done
    j done
done:
    halt
`
	for _, c := range []struct {
		name, extra string
		want        bool
	}{
		{"scalar", "", true},
		{"vadd", "vadd v1, v2, v3", false},
		{"setvl", "setvl r5, r1", false},
		{"vltcfg", "vltcfg 2", false},
	} {
		p, err := ParseText(c.name, c.extra+"\n"+scalar)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := p.VectorFree(); got != c.want {
			t.Errorf("%s: VectorFree() = %v, want %v", c.name, got, c.want)
		}
	}
}
