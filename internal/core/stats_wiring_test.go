package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The registry wiring's differential guarantee: a Result is its metric
// snapshot, and every su*, lane*, vcl.* and l2.* value in it must equal
// the field read directly off the owning component — for every machine
// shape (OoO SUs with and without a vector unit, SMT, lane cores).
// Combined with the figure/table goldens this pins every export to the
// components' own counters.
func TestResultAssembledFromRegistryMatchesComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	type run struct {
		cfg    Config
		scalar bool
	}
	runs := []run{
		{Base(8), false},
		{V2CMP(), false},
		{V4SMT(), false},
		{VLTScalar(4), true},
		{CMT(4), true},
	}
	for _, rc := range runs {
		var prog = genProgramKind(rng, rc.cfg.NumThreads, rc.scalar)
		m, err := NewMachine(rc.cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", rc.cfg.Name, err)
		}

		snap := res.Metrics()
		// A metric missing from the snapshot fails, even where the
		// component reads 0.
		wantUint := func(name string, want uint64) {
			t.Helper()
			if v, ok := snap.Get(name); !ok || !v.IsInt || v.Int != want {
				t.Errorf("%s: %s = %+v (present %t), component reads %d", rc.cfg.Name, name, v, ok, want)
			}
		}
		wantFloat := func(name string, want float64) {
			t.Helper()
			if v, ok := snap.Get(name); !ok || v.AsFloat() != want {
				t.Errorf("%s: %s = %+v (present %t), component reads %v", rc.cfg.Name, name, v, ok, want)
			}
		}
		var wantRetired uint64
		for i, su := range m.sus {
			p := fmt.Sprintf("su%d.", i)
			wantRetired += su.Retired
			wantUint(p+"fetch.instrs", su.Fetched)
			wantUint(p+"dispatch.instrs", su.Dispatched)
			wantUint(p+"issue.instrs", su.IssuedCount)
			wantUint(p+"retire.instrs", su.Retired)
			wantUint(p+"fetch.stall.branch", su.FetchStallBranch)
			wantUint(p+"fetch.stall.icache", su.FetchStallICache)
			wantUint(p+"dispatch.stall.rob", su.DispStallROB)
			wantUint(p+"dispatch.stall.window", su.DispStallWindow)
			wantUint(p+"dispatch.stall.viq", su.DispStallVIQ)
			wantFloat(p+"bpred.mispredict_pct", 100*su.Predictor().MispredictRate())
			wantFloat(p+"l1i.hit_pct", 100*su.ICache().Cache().HitRate())
			wantFloat(p+"l1d.hit_pct", 100*su.DCache().Cache().HitRate())
		}
		for i, c := range m.lcs {
			p := fmt.Sprintf("lane%d.", i)
			wantRetired += c.Retired
			wantUint(p+"fetch.instrs", c.Fetched)
			wantUint(p+"issue.instrs", c.Issued)
			wantUint(p+"retire.instrs", c.Retired)
			wantUint(p+"stall.operand", c.StallOperand)
			wantUint(p+"stall.mem_port", c.StallMemPort)
			wantFloat(p+"bpred.mispredict_pct", 100*c.Predictor().MispredictRate())
			wantFloat(p+"icache.hit_pct", 100*c.ICache().Cache().HitRate())
		}
		if res.Retired != wantRetired {
			t.Errorf("%s: Retired = %d, want %d", rc.cfg.Name, res.Retired, wantRetired)
		}
		wantUint("machine.retired", wantRetired)
		if m.vu != nil {
			wantUint("vcl.util.busy", m.vu.Util.Busy)
			wantUint("vcl.util.part_idle", m.vu.Util.PartIdle)
			wantUint("vcl.util.stalled", m.vu.Util.Stalled)
			wantUint("vcl.util.all_idle", m.vu.Util.AllIdle)
			wantUint("vcl.issued", m.vu.VecIssued)
			wantUint("vcl.elem_ops", m.vu.VecElemOps)
		} else if _, ok := snap.Get("vcl.issued"); ok {
			t.Errorf("%s: no vector unit, yet the snapshot has vcl.issued", rc.cfg.Name)
		}
		wantUint("l2.bank_stalls", m.l2.BankStalls)
		wantFloat("l2.hit_rate", m.l2.Cache().HitRate())
		if res.Cycles == 0 || res.Cycles != m.Now() {
			t.Errorf("%s: Cycles = %d, machine stopped at %d", rc.cfg.Name, res.Cycles, m.Now())
		}
		wantUint("machine.cycles", res.Cycles)
	}
}

// Every metric name is hierarchical (dot-separated, lowercase) and the
// snapshot is sorted — the contract the golden files and JSON exports
// rely on.
func TestMetricNamingAndOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := V2CMP()
	m, err := NewMachine(cfg, genProgram(rng, cfg.NumThreads))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	snap := m.Registry().Snapshot()
	if len(snap) < 40 {
		t.Errorf("only %d metrics registered, want >= 40", len(snap))
	}
	prev := ""
	for _, v := range snap {
		if v.Name <= prev {
			t.Errorf("snapshot unsorted: %q after %q", v.Name, prev)
		}
		prev = v.Name
		if strings.ToLower(v.Name) != v.Name || strings.Contains(v.Name, " ") {
			t.Errorf("metric %q violates the naming scheme", v.Name)
		}
	}
}
