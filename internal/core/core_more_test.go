package core

import (
	"encoding/json"
	"strings"
	"testing"

	"vlt/internal/asm"
	"vlt/internal/isa"
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

func TestSetTraceEmitsRetirementLines(t *testing.T) {
	m, err := NewMachine(Base(8), tinyVectorProgram())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	m.SetTrace(&sb)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"setvl", "viota", "vredsum", "halt", "t0"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	lines := strings.Count(out, "\n")
	if lines != len(tinyVectorProgram().Code) {
		t.Errorf("trace has %d lines, want %d (one per retired instruction)",
			lines, len(tinyVectorProgram().Code))
	}
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

func TestSetPipeViewEmitsTimeline(t *testing.T) {
	m, err := NewMachine(Base(8), tinyVectorProgram())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	m.SetPipeView(&sb)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != len(tinyVectorProgram().Code) {
		t.Fatalf("pipeview has %d lines, want %d", len(lines), len(tinyVectorProgram().Code))
	}
	for _, l := range lines {
		if !strings.Contains(l, "F") || !strings.Contains(l, "R") || !strings.HasPrefix(l, "t0") {
			t.Errorf("malformed pipeview line %q", l)
		}
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	m, err := NewMachine(Base(8), tinyVectorProgram())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tracer := NewChromeTracer(&sb)
	m.SetChromeTrace(tracer)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, sb.String())
	}
	// One duration event per instruction plus the Close-time metrics
	// metadata event.
	if len(events) != len(tinyVectorProgram().Code)+1 {
		t.Errorf("%d events, want %d", len(events), len(tinyVectorProgram().Code)+1)
	}
	for _, e := range events[:len(events)-1] {
		if e["ph"] != "X" || e["name"] == "" {
			t.Errorf("malformed event: %v", e)
		}
	}
	meta := events[len(events)-1]
	if meta["ph"] != "M" || meta["name"] != "metrics" {
		t.Fatalf("last event is not the metrics snapshot: %v", meta)
	}
	args, ok := meta["args"].(map[string]any)
	if !ok || len(args) < 40 {
		t.Fatalf("metrics event carries %d counters, want >= 40", len(args))
	}
	if args["machine.cycles"].(float64) <= 0 || args["vcl.issued"].(float64) <= 0 {
		t.Errorf("metrics event missing machine.cycles/vcl.issued: %v", args)
	}
}

// traceName must keep trace events valid JSON for hostile instruction
// names (control bytes, invalid UTF-8) and cap runaway lengths.
func TestChromeTraceNameEscaping(t *testing.T) {
	for _, hostile := range []string{
		"add\x00r1, r2",
		"bad\x80\xfebytes",
		"quote\"and\\slash",
		strings.Repeat("x", 4096),
	} {
		q := traceName(hostile)
		var back string
		if err := json.Unmarshal([]byte(q), &back); err != nil {
			t.Fatalf("traceName(%q) emitted invalid JSON %q: %v", hostile, q, err)
		}
		if len(q) > maxTraceName*8 {
			t.Fatalf("traceName did not cap %d-byte name (got %d bytes)", len(hostile), len(q))
		}
	}
}
