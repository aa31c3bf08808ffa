package core

import (
	"strings"
	"testing"

	"vlt/internal/asm"
	"vlt/internal/isa"
	"vlt/internal/pipe"
)

func tinyVectorProgram() *asm.Program {
	b := asm.NewBuilder("tiny")
	b.Mark(1)
	b.MovI(isa.R(1), 8)
	b.SetVL(isa.R(2), isa.R(1))
	b.VIota(isa.V(1))
	b.VRedSum(isa.R(3), isa.V(1))
	b.Mark(0)
	b.Bar()
	b.Halt()
	return b.MustAssemble()
}

func TestMaxCyclesGuard(t *testing.T) {
	b := asm.NewBuilder("spin")
	l := b.NewLabel("l")
	b.Bind(l)
	b.J(l)
	b.Halt()
	cfg := Base(8)
	cfg.MaxCycles = 500
	m, err := NewMachine(cfg, b.MustAssemble())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Fatalf("expected max-cycles error, got %v", err)
	}
}

// TestRegionCyclesAccounting: every cycle lands in exactly one MARK
// region of thread 0, and machine.opportunity_pct is the share outside
// region 0.
func TestRegionCyclesAccounting(t *testing.T) {
	res, m := runToEnd(t, Base(8), tinyVectorProgram())
	var total, opp uint64
	for _, id := range m.regions() {
		total += m.regionCycles[id]
		if id > 0 {
			opp += m.regionCycles[id]
		}
	}
	if total != res.Cycles {
		t.Errorf("region cycles sum to %d, want total %d", total, res.Cycles)
	}
	if m.regionCycles[1] == 0 {
		t.Error("no cycles attributed to region 1")
	}
	want := 100 * float64(opp) / float64(res.Cycles)
	if got := res.Metrics().Float("machine.opportunity_pct"); got != want {
		t.Errorf("machine.opportunity_pct = %v, want %v", got, want)
	}
}

func TestL2AccessorAndStats(t *testing.T) {
	m, err := NewMachine(Base(8), tinyVectorProgram())
	if err != nil {
		t.Fatal(err)
	}
	if m.L2() == nil || m.VM() == nil {
		t.Fatal("accessors returned nil")
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics().Uint("vcl.issued"); got != 2 { // viota + vredsum
		t.Errorf("vcl.issued = %d, want 2", got)
	}
	if got := res.Metrics().Uint("vcl.elem_ops"); got != 16 {
		t.Errorf("vcl.elem_ops = %d, want 16", got)
	}
}

func TestCustomVCLConfigPropagates(t *testing.T) {
	cfg := Base(8)
	cfg.VCL.IssueWidth = 1
	cfg.VCL.DisableChaining = true
	m, err := NewMachine(cfg, tinyVectorProgram())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestHeterogeneousConfigsValidate(t *testing.T) {
	for _, cfg := range []Config{V2SMT(), V2CMPh(), V4CMPh(), CMT(4), VLTScalar(8)} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestSixteenLaneMachine(t *testing.T) {
	prog := vectorSumProgram(64, 64)
	r16, _ := runToEnd(t, Base(16), prog)
	r8, _ := runToEnd(t, Base(8), vectorSumProgram(64, 64))
	if r16.Cycles >= r8.Cycles {
		t.Errorf("16 lanes (%d cycles) should beat 8 lanes (%d) on VL-64 code",
			r16.Cycles, r8.Cycles)
	}
	// Utilization accounting must cover 16 lanes * 3 datapaths.
	if total := utilization(r16).Total(); total != r16.Cycles*3*16 {
		t.Errorf("utilization total %d, want %d", total, r16.Cycles*3*16)
	}
}

func TestBarrierFenceWaitsForVectorDrain(t *testing.T) {
	// A thread issues a long vector store immediately before a barrier;
	// the barrier must not release until the store's elements are
	// accepted (ThreadInFlight == 0).
	b := asm.NewBuilder("fence")
	buf := b.Alloc("buf", 64)
	b.MovI(isa.R(1), 64)
	b.SetVL(isa.R(2), isa.R(1))
	b.VIota(isa.V(1))
	b.MovA(isa.R(3), buf)
	b.VSt(isa.V(1), isa.R(3))
	b.Bar()
	b.Halt()
	res, m := runToEnd(t, Base(8), b.MustAssemble())
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
	if got := m.VM().Mem.MustRead(buf + 63*8); got != 63 {
		t.Errorf("store content wrong: %d", got)
	}
}

// TestRetireHookSeesEveryRetirement: the one retirement hook sees each
// retired instruction once, in cycle order, and a Fork does not carry
// it — the clone retires the rest of the program unobserved.
func TestRetireHookSeesEveryRetirement(t *testing.T) {
	prog := tinyVectorProgram()
	m, err := NewMachine(Base(8), prog)
	if err != nil {
		t.Fatal(err)
	}
	var pcs []int
	var last uint64
	m.SetRetireHook(func(now uint64, tid int, u *pipe.Uop) {
		if now < last || tid != 0 {
			t.Errorf("retirement at cycle %d thread %d after cycle %d", now, tid, last)
		}
		last = now
		pcs = append(pcs, u.Dyn.PC)
	})
	if err := m.RunUntil(40); err != nil {
		t.Fatal(err)
	}
	before := len(pcs)
	if before == len(prog.Code) {
		t.Fatal("program retired before the fork point; move the fork earlier")
	}
	if _, err := m.Fork().Run(); err != nil {
		t.Fatal(err)
	}
	if len(pcs) != before {
		t.Fatalf("forked machine's retirements reached the parent's hook: %d, want %d", len(pcs), before)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pcs) != len(prog.Code) {
		t.Fatalf("hook saw %d retirements, want %d (one per instruction)", len(pcs), len(prog.Code))
	}
	for i, pc := range pcs {
		if pc != i {
			t.Fatalf("retirement %d at pc %d, want %d (straight-line program)", i, pc, i)
		}
	}
}
