package core

import (
	"cmp"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"vlt/internal/asm"
	"vlt/internal/guard"
	"vlt/internal/isa"
	"vlt/internal/pipe"
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

// faultCycle is where TestFaultInjectionMatrix stops the machine to
// break it: an audit boundary, well after the ~104-cycle cold start
// (the first I-cache line fill goes to DRAM), so the pipelines are
// retiring steadily when the fault lands.
const faultCycle = 20 * guard.AuditEvery

// oldestUop returns the oldest in-flight uop that ok accepts. It walks
// the arena's first 128-uop slab, which holds the steady-state window of
// the single-threaded loop because freed slots are reused last-in
// first-out.
func oldestUop(t *testing.T, m *Machine, ok func(*pipe.Uop) bool) *pipe.Uop {
	t.Helper()
	var oldest *pipe.Uop
	for id := pipe.UopID(1); id < 128; id++ {
		u := m.arena.At(id)
		if u.Dyn.Inst == nil || u.Retired || !ok(u) {
			continue
		}
		if oldest == nil || u.Dyn.Seq < oldest.Dyn.Seq {
			oldest = u
		}
	}
	if oldest == nil {
		t.Fatalf("no matching uop in flight at cycle %d", m.now)
	}
	return oldest
}

// TestFaultInjectionMatrix proves every detector fires on the fault it
// claims: the test stops a machine at faultCycle, breaks one structure
// through state the core package reaches, and resumes. Timing faults
// trip the forward-progress watchdog, state corruptions trip the named
// invariant on the very audit the fault lands before, each with a
// diagnostic dump identifying thread, cycle and structure.
func TestFaultInjectionMatrix(t *testing.T) {
	cases := []struct {
		name          string
		stallLimit    uint64                         // 0 = 200, above the cold-start fill
		fault         func(t *testing.T, m *Machine) // applied at faultCycle; nil = none
		wantInvariant string                         // expected InvariantError.Invariant; "" = expect StallError
		stallFrom     uint64                         // a StallError's earliest cycle
	}{
		// The cold-start fill retires nothing for ~104 cycles, so a
		// shorter window trips the watchdog before faultCycle.
		{name: "stall", stallLimit: 50, stallFrom: 50},
		{name: "drop-completion", stallFrom: faultCycle + 200, fault: func(t *testing.T, m *Machine) {
			u := oldestUop(t, m, func(u *pipe.Uop) bool {
				return u.Issued && !u.Dyn.Inst.Op.Info().Vector
			})
			u.DoneCycle = pipe.NeverDone
		}},
		{name: "corrupt-scoreboard", wantInvariant: "vcl.scoreboard", fault: func(t *testing.T, m *Machine) {
			// The VIQ feeds the VCL window in order, so the oldest
			// waiting vector write is in the window, holding a rename.
			// The private copy leaves the program untouched.
			u := oldestUop(t, m, func(u *pipe.Uop) bool {
				in := u.Dyn.Inst
				return !u.Issued && in.Op.Info().Vector && in.Rd.IsVec()
			})
			in := *u.Dyn.Inst
			in.Rd = isa.RegNone
			u.Dyn.Inst = &in
		}},
		{name: "corrupt-occupancy", wantInvariant: "vcl.occupancy",
			fault: func(_ *testing.T, m *Machine) { m.vu.Enqueued++ }},
		{name: "corrupt-cache", wantInvariant: "su0.cache-counters",
			fault: func(_ *testing.T, m *Machine) { m.sus[0].DCache().Cache().Hits++ }},
		{name: "corrupt-retired", wantInvariant: "machine.retired-conserved",
			fault: func(_ *testing.T, m *Machine) { m.sus[0].Retired /= 2 }},
		{name: "corrupt-retired-by-one", wantInvariant: "machine.retired-conserved",
			fault: func(_ *testing.T, m *Machine) { m.sus[0].Retired-- }},
		{name: "corrupt-ready-cycle", wantInvariant: "su0.waiting", fault: func(t *testing.T, m *Machine) {
			// Push the oldest issue entry's cached ready cycle far out:
			// it stays listed through the audit, disagreeing with its
			// producers' completions. The field is unexported, so the
			// test writes it through reflect.
			q := reflect.ValueOf(m.sus[0]).Elem().FieldByName("issueQ")
			if q.Len() == 0 {
				t.Fatalf("su0 has no issue entry at cycle %d", m.now)
			}
			ready := q.Index(0).FieldByName("ready")
			ready = reflect.NewAt(ready.Type(), unsafe.Pointer(ready.UnsafeAddr())).Elem()
			ready.SetUint(ready.Uint() + 1000)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Base(8)
			cfg.Audit = guard.AuditOn
			cfg.StallLimit = cmp.Or(tc.stallLimit, 200)
			m, err := NewMachine(cfg, loopVectorProgram(100_000))
			if err != nil {
				t.Fatal(err)
			}
			err = m.RunUntil(faultCycle)
			if tc.fault != nil {
				if err != nil {
					t.Fatalf("run failed before the fault at cycle %d: %v", faultCycle, err)
				}
				tc.fault(t, m)
				_, err = m.Run()
			}
			if err == nil {
				t.Fatal("fault went undetected")
			}
			var dump string
			if tc.wantInvariant != "" {
				var inv *guard.InvariantError
				if !errors.As(err, &inv) {
					t.Fatalf("want *guard.InvariantError, got %T: %v", err, err)
				}
				if inv.Invariant != tc.wantInvariant || inv.Cycle != faultCycle {
					t.Errorf("invariant %q fired at cycle %d, want %q at %d (%v)",
						inv.Invariant, inv.Cycle, tc.wantInvariant, faultCycle, err)
				}
				t.Logf("%s: %s at cycle %d", tc.name, inv.Invariant, inv.Cycle)
				dump = inv.Dump
			} else {
				var stall *guard.StallError
				if !errors.As(err, &stall) {
					t.Fatalf("want *guard.StallError, got %T: %v", err, err)
				}
				if stall.Kind != "livelock" {
					t.Errorf("stall kind %q, want livelock", stall.Kind)
				}
				if stall.Cycle < tc.stallFrom {
					t.Errorf("fired at cycle %d, before cycle %d", stall.Cycle, tc.stallFrom)
				}
				t.Logf("%s: watchdog %s at cycle %d", tc.name, stall.Kind, stall.Cycle)
				dump = stall.Dump
			}
			wants := []string{"thread 0", "su0", "vcl", "retired instructions"}
			if tc.fault != nil {
				// The loop is retiring by faultCycle, and the ring names
				// each instruction by its text.
				code := loopVectorProgram(1).Code
				bne := slices.IndexFunc(code, func(in isa.Instruction) bool { return in.Op == isa.OpBne })
				wants = append(wants, code[bne].String())
			}
			for _, want := range wants {
				if !strings.Contains(dump, want) {
					t.Errorf("diagnostic dump missing %q:\n%s", want, dump)
				}
			}
		})
	}
}

// TestRefusedVltCfgFaults: a VLTCFG the functional machine accepts but
// the vector unit refuses (six lanes do not split four ways) fails the
// run within one cycle of fetch gating on it, naming the instruction
// and the reason, instead of waiting at the ROB head until the
// watchdog fires.
func TestRefusedVltCfgFaults(t *testing.T) {
	b := asm.NewBuilder("vltcfg4")
	b.VltCfg(4)
	b.Halt()
	cfg, err := ByName("V2-CMP", 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cfg, b.MustAssemble())
	if err != nil {
		t.Fatal(err)
	}
	var gated uint64 // the cycle a VLTCFG first gated a thread's fetch
	for c := uint64(1); err == nil; c++ {
		if c > 10_000 {
			t.Fatal("the refused VLTCFG did not fault in 10000 cycles")
		}
		err = m.RunUntil(c)
		if gated == 0 && m.arena.Gated() > 0 {
			gated = c - 1
		}
	}
	if gated == 0 || m.Now() > gated+1 {
		t.Errorf("faulted at cycle %d, want within one cycle of the VLTCFG at %d", m.Now(), gated)
	}
	var stall *guard.StallError
	if errors.As(err, &stall) {
		t.Fatalf("want a machine fault, got a stall: %v", err)
	}
	for _, want := range []string{"vltcfg 4", "pc 0", "cannot split 6 lanes into 4 partitions"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("fault %q does not name %q", err, want)
		}
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
