package vlt

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestGoldenMetrics pins the full registry export for mxm on the base
// machine. The simulator is deterministic, so any drift in this file is
// a real behavior change (new metric, renamed metric, or a timing
// change) and must be reviewed — regenerate with `go test -run
// TestGoldenMetrics -update .`.
func TestGoldenMetrics(t *testing.T) {
	res, err := Run("mxm", MachineBase, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Metrics.String()
	golden := filepath.Join("testdata", "metrics_base_mxm.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("metrics drifted from %s (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// TestMetricsCoverage asserts the machine-readable export carries at
// least 40 metrics and covers every scalar unit's pipeline census, the
// Figure-4 utilization census and the functional operation mix: the
// snapshot is the only place a run reports them.
func TestMetricsCoverage(t *testing.T) {
	res, err := Run("mxm", MachineBase, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms := res.Metrics
	if len(ms) < 40 {
		t.Fatalf("export has %d metrics, want >= 40", len(ms))
	}
	for _, name := range []string{
		// scalar unit pipeline census
		"su0.fetch.instrs", "su0.dispatch.instrs", "su0.issue.instrs",
		"su0.retire.instrs", "su0.fetch.stall.branch", "su0.fetch.stall.icache",
		"su0.dispatch.stall.rob", "su0.dispatch.stall.window",
		"su0.dispatch.stall.viq", "su0.bpred.mispredict_pct",
		"su0.l1i.hit_pct", "su0.l1d.hit_pct",
		// Figure-4 utilization census
		"vcl.util.busy", "vcl.util.part_idle", "vcl.util.stalled",
		"vcl.util.all_idle",
		// functional operation mix (Table 4 inputs)
		"vm.ops.scalar_instrs", "vm.ops.vec_instrs", "vm.ops.vec_elem_ops",
		"vm.ops.pct_vect", "vm.ops.avg_vl",
		// machine-level
		"machine.cycles", "machine.retired", "machine.ipc",
		"machine.opportunity_pct", "l2.bank_stalls", "l2.hit_rate",
	} {
		if _, ok := ms.Get(name); !ok {
			t.Errorf("export missing %q", name)
		}
	}
	// The headline counts are read from the export.
	if v, _ := ms.Get("machine.cycles"); v != float64(res.Cycles) {
		t.Errorf("machine.cycles %v != Cycles %d", v, res.Cycles)
	}
	if v, _ := ms.Get("machine.retired"); v != float64(res.Retired) {
		t.Errorf("machine.retired %v != Retired %d", v, res.Retired)
	}
	if v, _ := ms.Get("vcl.issued"); v != float64(res.VecIssued) {
		t.Errorf("vcl.issued %v != VecIssued %d", v, res.VecIssued)
	}
	// Sorted by name, lowercase, no spaces.
	for i, m := range ms {
		if i > 0 && ms[i-1].Name >= m.Name {
			t.Errorf("export not strictly sorted at %q >= %q", ms[i-1].Name, m.Name)
		}
		if m.Name != strings.ToLower(m.Name) || strings.ContainsAny(m.Name, " \t") {
			t.Errorf("bad metric name %q", m.Name)
		}
	}
}

// TestLaneCoreMetricsCoverage does the lane-core half of the coverage
// check on a lane-scalar machine.
func TestLaneCoreMetricsCoverage(t *testing.T) {
	res, err := Run("radix", MachineVLTScalar, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"lane0.fetch.instrs", "lane0.issue.instrs", "lane0.retire.instrs",
		"lane0.stall.operand", "lane0.stall.mem_port",
		"lane0.bpred.mispredict_pct", "lane0.icache.hit_pct",
		"lane7.retire.instrs",
	} {
		if _, ok := res.Metrics.Get(name); !ok {
			t.Errorf("lane-scalar export missing %q", name)
		}
	}
}
