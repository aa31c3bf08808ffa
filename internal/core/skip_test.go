package core

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vlt/internal/guard"
	"vlt/internal/stats"
	"vlt/internal/workloads"
)

// TestSkipMatchesTickAtEveryStop pins what a caller stepping through a
// run sees (vltrun -sample reads its rows this way): stopped by
// RunUntil after every seventh cycle, a skipping machine's full
// registry snapshot equals the tick-every-cycle reference's. A jump
// must end at the caller's stop and bulk-credit exactly the span it
// skipped, so a missed clamp or a mis-credited span shows at the first
// stop past it. An odd interval (7) lands the stops off any natural
// event cycle.
func TestSkipMatchesTickAtEveryStop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	configs := []func() Config{
		func() Config { return Base(8) },
		V4CMT,
		func() Config { return VLTScalar(4) },
		V2SMT,
	}
	stops := 0
	for trial := 0; trial < 12; trial++ {
		cfg := configs[trial%len(configs)]()
		prog := genProgram(rng, cfg.NumThreads)
		if cfg.Lanes == 0 || cfg.LaneScalarMode {
			prog = genScalarProgram(rng, cfg.NumThreads)
		}
		ref := cfg
		ref.NoSkip = true
		skipM, err := NewMachine(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		tickM, err := NewMachine(ref, prog)
		if err != nil {
			t.Fatal(err)
		}
		for stop := uint64(1); ; stop += 7 {
			if err := skipM.RunUntil(stop); err != nil {
				t.Fatalf("trial %d (%s): skipping run: %v", trial, cfg.Name, err)
			}
			if err := tickM.RunUntil(stop); err != nil {
				t.Fatalf("trial %d (%s): ticking run: %v", trial, cfg.Name, err)
			}
			if skipM.Now() != tickM.Now() {
				t.Fatalf("trial %d (%s) stop %d: skipping stopped at cycle %d, ticking at %d",
					trial, cfg.Name, stop, skipM.Now(), tickM.Now())
			}
			got, want := skipM.Registry().Snapshot(), tickM.Registry().Snapshot()
			if len(got) != len(want) {
				t.Fatalf("trial %d (%s) stop %d: %d metrics skipping vs %d ticking",
					trial, cfg.Name, stop, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d (%s) stop %d: metric %s = %s skipping vs %s = %s ticking",
						trial, cfg.Name, stop, got[i].Name, got[i].FormatValue(),
						want[i].Name, want[i].FormatValue())
				}
			}
			stops++
			if skipM.Now() < stop {
				break // both finished before the stop
			}
		}
	}
	t.Logf("%d stops matched", stops)
}

// TestSkipMatchesTickUnderAblations extends the equivalence harness's
// skip and audit-off modes (equiv_test.go in the root package) to the
// ablation settings the named machines never use: consumers that wait
// for full completion (VCL.DisableChaining), a fully replicated VCL
// issue stage (VCL.ReplicatedIssue) and the lane cores' decouple window
// at its blocking and a narrow setting (LaneCore.DecoupleWindow). Each
// changes a readiness or issue rule the event horizon and the idle
// replay share with the tick, so each cell's full metric snapshot,
// skipping with the auditor on and off, must match the tick reference's
// (every metric but guard.audit.* with the auditor off).
func TestSkipMatchesTickUnderAblations(t *testing.T) {
	vector := []string{"mpenc", "trfd", "multprec", "bt", "mxm"}
	scalarOnly := []string{"radix", "ocean", "barnes"}
	type ablation struct {
		name      string
		machines  []func() Config
		workloads []string
		apply     func(*Config)
	}
	vectorMachines := []func() Config{func() Config { return Base(8) }, V2CMP, V4CMT}
	laneMachines := []func() Config{func() Config { return VLTScalar(8) }}
	window := func(n int) func(*Config) {
		return func(c *Config) { c.LaneCore.DecoupleWindow = n }
	}
	ablations := []ablation{
		{"no-chaining", vectorMachines, vector, func(c *Config) { c.VCL.DisableChaining = true }},
		{"replicated-issue", vectorMachines, vector, func(c *Config) { c.VCL.ReplicatedIssue = true }},
		{"decouple-1", laneMachines, scalarOnly, window(1)},
		{"decouple-4", laneMachines, scalarOnly, window(4)},
	}
	for _, ab := range ablations {
		for _, machine := range ab.machines {
			for _, name := range ab.workloads {
				cfg := machine()
				ab.apply(&cfg)
				t.Run(ab.name+"/"+cfg.Name+"/"+name, func(t *testing.T) {
					t.Parallel()
					w, err := workloads.ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					prog := w.Build(workloads.Params{
						Threads:    cfg.NumThreads,
						ScalarOnly: cfg.Lanes == 0 || cfg.LaneScalarMode,
					})
					run := func(noSkip bool, audit guard.AuditMode) stats.Snapshot {
						c := cfg
						c.NoSkip, c.Audit = noSkip, audit
						m, err := NewMachine(c, prog)
						if err != nil {
							t.Fatal(err)
						}
						defer m.Release()
						res, err := m.Run()
						if err != nil {
							t.Fatalf("NoSkip=%v audit=%v: %v", noSkip, audit, err)
						}
						return res.Metrics()
					}
					tick := run(true, guard.AuditOn)
					diff := func(mode string, got stats.Snapshot) {
						ref := tick
						if mode == "audit-off" {
							audit := func(v stats.Value) bool { return strings.HasPrefix(v.Name, "guard.audit.") }
							ref = slices.DeleteFunc(slices.Clone(ref), audit)
							got = slices.DeleteFunc(got, audit)
						}
						if len(got) != len(ref) {
							t.Fatalf("%s: metric count differs: %d vs %d ticking", mode, len(got), len(ref))
						}
						for i := range got {
							if got[i] != ref[i] {
								t.Errorf("%s: metric %s: %s vs %s ticking",
									mode, got[i].Name, got[i].FormatValue(), ref[i].FormatValue())
							}
						}
					}
					diff("skip", run(false, guard.AuditOn))
					diff("audit-off", run(false, guard.AuditOff))
				})
			}
		}
	}
}
