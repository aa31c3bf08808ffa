package core

import (
	"errors"
	"strings"
	"testing"

	"vlt/internal/asm"
	"vlt/internal/guard"
	"vlt/internal/isa"
	"vlt/internal/vm"
)

// loopVectorProgram iterates a vector kernel iters times: steady scalar
// and vector retirement traffic for the fault-injection tests to disturb.
func loopVectorProgram(iters int64) *asm.Program {
	b := asm.NewBuilder("guardloop")
	b.MovI(isa.R(1), 8)
	b.SetVL(isa.R(2), isa.R(1))
	b.MovI(isa.R(4), iters)
	l := b.NewLabel("loop")
	b.Bind(l)
	b.VIota(isa.V(1))
	b.VRedSum(isa.R(3), isa.V(1))
	b.AddI(isa.R(4), isa.R(4), -1)
	b.Bne(isa.R(4), isa.R(0), l)
	b.Halt()
	return b.MustAssemble()
}

// TestFaultInjectionMatrix proves every injectable fault is detected by
// the layer that claims it: timing faults trip the forward-progress
// watchdog, state corruptions trip the named invariant — each with a
// diagnostic dump identifying thread, cycle and structure.
func TestFaultInjectionMatrix(t *testing.T) {
	cases := []struct {
		kind          guard.InjectKind
		wantInvariant string // expected InvariantError.Invariant; "" = expect StallError
	}{
		{kind: guard.InjectStall},
		{kind: guard.InjectDropCompletion},
		{kind: guard.InjectCorruptScoreboard, wantInvariant: "vcl.scoreboard"},
		{kind: guard.InjectCorruptOccupancy, wantInvariant: "vcl.occupancy"},
		{kind: guard.InjectCorruptCache, wantInvariant: "su0.cache-counters"},
		{kind: guard.InjectCorruptRetired, wantInvariant: "machine.retired-monotone"},
	}
	for _, tc := range cases {
		t.Run(string(tc.kind), func(t *testing.T) {
			cfg := Base(8)
			cfg.Audit = guard.AuditOn
			cfg.AuditEvery = 1
			cfg.StallLimit = 200
			// Inject well after the ~104-cycle cold start (first I-cache
			// line fill goes to DRAM), so the pipelines are retiring
			// steadily when the fault lands.
			cfg.Inject = guard.Injection{Kind: tc.kind, Cycle: 300}
			m, err := NewMachine(cfg, loopVectorProgram(100_000))
			if err != nil {
				t.Fatal(err)
			}
			_, err = m.Run()
			if err == nil {
				t.Fatal("injected fault went undetected")
			}
			var dump string
			if tc.wantInvariant != "" {
				var inv *guard.InvariantError
				if !errors.As(err, &inv) {
					t.Fatalf("want *guard.InvariantError, got %T: %v", err, err)
				}
				if inv.Invariant != tc.wantInvariant {
					t.Errorf("invariant %q fired, want %q (%v)", inv.Invariant, tc.wantInvariant, err)
				}
				if inv.Cycle < 300 {
					t.Errorf("detected at cycle %d, before the injection at 300", inv.Cycle)
				}
				dump = inv.Dump
			} else {
				var stall *guard.StallError
				if !errors.As(err, &stall) {
					t.Fatalf("want *guard.StallError, got %T: %v", err, err)
				}
				if stall.Kind != "livelock" {
					t.Errorf("stall kind %q, want livelock", stall.Kind)
				}
				if stall.Cycle < 300 {
					t.Errorf("fired at cycle %d, before the injection at 300", stall.Cycle)
				}
				dump = stall.Dump
			}
			for _, want := range []string{"thread 0", "su0", "vcl", "retired instructions"} {
				if !strings.Contains(dump, want) {
					t.Errorf("diagnostic dump missing %q:\n%s", want, dump)
				}
			}
		})
	}
}

// TestMaxCyclesCarriesDump extends the historical max-cycles guard: the
// error is now typed and carries the same diagnostic dump as a livelock.
func TestMaxCyclesCarriesDump(t *testing.T) {
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
	_, err = m.Run()
	var stall *guard.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want *guard.StallError, got %T: %v", err, err)
	}
	if stall.Kind != "max-cycles" || stall.Limit != 500 {
		t.Errorf("kind %q limit %d, want max-cycles/500", stall.Kind, stall.Limit)
	}
	if !strings.Contains(stall.Dump, "thread 0") {
		t.Errorf("dump missing thread state:\n%s", stall.Dump)
	}
}

// TestWatchdogAllowsRetiringSpin: a loop that keeps retiring must NOT
// trip a small StallLimit — forward progress is retirement, not
// completion. (The limit still has to cover the ~104-cycle cold start.)
func TestWatchdogAllowsRetiringSpin(t *testing.T) {
	cfg := Base(8)
	cfg.StallLimit = 150
	cfg.MaxCycles = 5000
	m, err := NewMachine(cfg, loopVectorProgram(50))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("retiring loop tripped the watchdog: %v", err)
	}
	if res.Retired == 0 {
		t.Error("loop retired nothing")
	}
}

// TestAuditDoesNotPerturbTiming: the auditor only reads machine state,
// so cycle counts and retire totals are identical with it on and off.
func TestAuditDoesNotPerturbTiming(t *testing.T) {
	run := func(mode guard.AuditMode) Result {
		cfg := Base(8)
		cfg.Audit = mode
		res, _ := runToEnd(t, cfg, loopVectorProgram(200))
		return res
	}
	on, off := run(guard.AuditOn), run(guard.AuditOff)
	if on.Cycles != off.Cycles || on.Retired != off.Retired {
		t.Errorf("audit changed the simulation: on=(%d cycles, %d retired) off=(%d, %d)",
			on.Cycles, on.Retired, off.Cycles, off.Retired)
	}
}

// TestGuardMetricsRegistered: the guard's state is visible through the
// metric registry for -json exports.
func TestGuardMetricsRegistered(t *testing.T) {
	cfg := Base(8)
	cfg.Audit = guard.AuditOn
	cfg.AuditEvery = 8
	res, _ := runToEnd(t, cfg, tinyVectorProgram())
	snap := res.Metrics()
	if snap.Uint("guard.audit.enabled") != 1 {
		t.Error("guard.audit.enabled != 1 with AuditOn")
	}
	if snap.Uint("guard.audit.passes") == 0 {
		t.Error("no audit passes recorded")
	}
	if snap.Uint("guard.audit.checks") < snap.Uint("guard.audit.passes") {
		t.Error("checks < passes")
	}
	if snap.Uint("guard.stall.limit") != guard.DefaultStallLimit {
		t.Errorf("guard.stall.limit = %d, want default %d",
			snap.Uint("guard.stall.limit"), guard.DefaultStallLimit)
	}
}

// TestVMFaultCarriesCycle: a guest fault surfaces through Run as a typed
// *vm.FaultError wrapped with the simulated cycle.
func TestVMFaultCarriesCycle(t *testing.T) {
	b := asm.NewBuilder("misaligned")
	b.MovI(isa.R(1), 3) // not 8-byte aligned
	b.Ld(isa.R(2), isa.R(1), 0)
	b.Halt()
	m, err := NewMachine(Base(8), b.MustAssemble())
	if err != nil {
		t.Fatal(err)
	}
	if _, err = m.Run(); err == nil {
		t.Fatal("misaligned load did not fault")
	}
	var fault *vm.FaultError
	if !errors.As(err, &fault) {
		t.Fatalf("want *vm.FaultError, got %T: %v", err, err)
	}
	if fault.Thread != 0 || fault.PC != 1 {
		t.Errorf("fault names thread %d pc %d, want thread 0 pc 1", fault.Thread, fault.PC)
	}
	if !strings.Contains(err.Error(), "cycle") || !strings.Contains(err.Error(), "pc 1") {
		t.Errorf("fault error %q missing cycle or PC", err)
	}
}
