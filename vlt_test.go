package vlt

import (
	"slices"
	"strings"
	"testing"

	"vlt/internal/core"
	"vlt/internal/vcl"
)

func TestMachinesAndWorkloadsEnumerate(t *testing.T) {
	want := []Machine{
		MachineBase, MachineV2SMT, MachineV2CMP, MachineV2CMPh,
		MachineV4SMT, MachineV4CMT, MachineV4CMP, MachineV4CMPh,
		MachineCMT, MachineVLTScalar,
	}
	if got := Machines(); !slices.Equal(got, want) {
		t.Errorf("Machines() = %v, want %v", got, want)
	}
	ws := Workloads()
	if len(ws) != 9 {
		t.Fatalf("Workloads() = %d entries, want 9", len(ws))
	}
	if ws[0] != "mxm" || ws[8] != "barnes" {
		t.Errorf("workload order wrong: %v", ws)
	}
}

func TestRunBasicAndVerified(t *testing.T) {
	r, err := Run("trfd", MachineBase, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verified {
		t.Error("result not verified")
	}
	if r.Cycles == 0 || r.Retired == 0 || r.IPC() <= 0 {
		t.Errorf("implausible result: %+v", r)
	}
	if r.Threads != 1 || r.Machine != MachineBase {
		t.Errorf("wrong run metadata: %+v", r)
	}
	total := r.Util.BusyPct + r.Util.PartIdlePct + r.Util.StalledPct + r.Util.AllIdlePct
	if total < 99.9 || total > 100.1 {
		t.Errorf("utilization percentages sum to %.2f, want 100", total)
	}
}

func TestRunDefaultsThreadsPerMachine(t *testing.T) {
	cases := map[Machine]int{
		MachineV2CMP: 2, MachineV4CMT: 4,
	}
	for m, want := range cases {
		r, err := Run("bt", m, Options{})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if r.Threads != want {
			t.Errorf("%s: threads = %d, want %d", m, r.Threads, want)
		}
	}
	r, err := Run("ocean", MachineVLTScalar, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Threads != 8 {
		t.Errorf("VLT-scalar threads = %d, want 8", r.Threads)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run("nope", MachineBase, Options{}); err == nil {
		t.Error("unknown workload should fail")
	}
	if _, err := Run("mxm", Machine("bogus"), Options{}); err == nil {
		t.Error("unknown machine should fail")
	}
	// Vector workloads cannot run on machines without a vector unit.
	if _, err := Run("mxm", MachineCMT, Options{}); err == nil {
		t.Error("vector workload on CMT should fail")
	}
	if _, err := Run("trfd", MachineVLTScalar, Options{}); err == nil {
		t.Error("vector workload on lane cores should fail")
	}
}

func TestScalarWorkloadsRunEverywhere(t *testing.T) {
	// The scalar-parallel workloads run on vector machines (vector
	// variant) and on the scalar-only machines (scalar variant).
	for _, m := range []Machine{MachineBase, MachineCMT, MachineVLTScalar} {
		r, err := Run("radix", m, Options{})
		if err != nil {
			t.Fatalf("radix on %s: %v", m, err)
		}
		if !r.Verified {
			t.Errorf("radix on %s not verified", m)
		}
	}
}

func TestTableRendering(t *testing.T) {
	t1 := Table1String()
	if !strings.Contains(t1, "Vector lane") || !strings.Contains(t1, "170.20") {
		t.Errorf("Table 1 rendering wrong:\n%s", t1)
	}
	t2 := Table2String()
	for _, cfg := range []string{"V2-SMT", "V4-CMT", "V4-CMP-h"} {
		if !strings.Contains(t2, cfg) {
			t.Errorf("Table 2 missing %s:\n%s", cfg, t2)
		}
	}
	t3 := Table3String()
	if !strings.Contains(t3, "4-way OoO") {
		t.Errorf("Table 3 rendering wrong:\n%s", t3)
	}

	// The base machine against the paper's Table 3, number by number.
	base := core.Base(8)
	su, vc, l2 := base.SUs[0], base.VCL, base.L2
	for _, p := range []struct {
		param     string
		got, want int
	}{
		{"SU issue width", su.Width, 4},
		{"SU window", su.WindowSize, 64},
		{"SU ROB", su.ROBSize, 64},
		{"SU ALUs", su.NumALU, 4},
		{"SU memory ports", su.NumMemPorts, 2},
		{"L1I KB", su.L1I.SizeBytes >> 10, 16},
		{"L1I ways", su.L1I.Assoc, 2},
		{"L1D KB", su.L1D.SizeBytes >> 10, 16},
		{"L1D ways", su.L1D.Assoc, 2},
		{"VCL issue width", vc.IssueWidth, 2},
		{"VIQ entries", vc.VIQSize, 32},
		{"vector window entries", vc.WindowSize, 32},
		{"lanes", base.Lanes, 8},
		{"arithmetic units per lane", vcl.NumVFUs, 3},
		{"memory ports per lane", vcl.NumMemPorts, 2},
		{"physical vector registers", vc.PhysRegs, 64},
		{"L2 MB", l2.SizeBytes >> 20, 4},
		{"L2 ways", l2.Assoc, 4},
		{"L2 banks", l2.Banks, 16},
		{"L2 hit cycles", l2.HitLat, 10},
		{"L2 miss cycles", l2.MissLat, 100},
	} {
		if p.got != p.want {
			t.Errorf("Table 3 %s = %d, paper %d", p.param, p.got, p.want)
		}
	}
}

func TestLanesOptionSweepsBase(t *testing.T) {
	r1, err := Run("mxm", MachineBase, Options{Lanes: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run("mxm", MachineBase, Options{Lanes: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r8.Cycles >= r1.Cycles {
		t.Errorf("8 lanes (%d cycles) should beat 1 lane (%d) on mxm", r8.Cycles, r1.Cycles)
	}
}
