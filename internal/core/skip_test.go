package core

import (
	"math/rand"
	"testing"

	"vlt/internal/stats"
	"vlt/internal/workloads"
)

// TestSamplerRowsUnaffectedBySkipping pins the interaction between the
// event-driven scheduler and the time-series sampler: a cycle jump must
// stop at every sample boundary, so the recorded series — row cycles
// and row values — is identical with and without skipping. An odd
// interval (7) makes the boundaries land off any natural event cycle,
// which is exactly where a missed clamp would show.
func TestSamplerRowsUnaffectedBySkipping(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	configs := []func() Config{
		func() Config { return Base(8) },
		func() Config { return V4CMT() },
		func() Config { return VLTScalar(4) },
	}
	for trial := 0; trial < 6; trial++ {
		cfg := configs[trial%len(configs)]()
		cfg.SampleEvery = 7
		prog := genProgram(rng, cfg.NumThreads)
		if cfg.Lanes == 0 || cfg.LaneScalarMode {
			prog = genScalarProgram(rng, cfg.NumThreads)
		}

		skipM, err := NewMachine(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := skipM.Run(); err != nil {
			t.Fatalf("trial %d (%s): skipping run: %v", trial, cfg.Name, err)
		}

		ref := cfg
		ref.NoSkip = true
		tickM, err := NewMachine(ref, prog)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tickM.Run(); err != nil {
			t.Fatalf("trial %d (%s): ticking run: %v", trial, cfg.Name, err)
		}

		ss, ts := skipM.Sampler(), tickM.Sampler()
		if ss.Len() == 0 {
			t.Fatalf("trial %d (%s): sampler recorded no rows", trial, cfg.Name)
		}
		if ss.Len() != ts.Len() {
			t.Fatalf("trial %d (%s): %d sample rows skipping vs %d ticking",
				trial, cfg.Name, ss.Len(), ts.Len())
		}
		for i := 0; i < ss.Len(); i++ {
			sc, sv := ss.Row(i)
			tc, tv := ts.Row(i)
			if sc != tc {
				t.Fatalf("trial %d (%s) row %d: sampled at cycle %d skipping vs %d ticking",
					trial, cfg.Name, i, sc, tc)
			}
			for j := range sv {
				if sv[j] != tv[j] {
					t.Fatalf("trial %d (%s) row %d: metric %s = %v skipping vs %v ticking",
						trial, cfg.Name, i, ss.Names()[j], sv[j], tv[j])
				}
			}
		}
	}
}

// TestSkipMatchesTickUnderAblations extends the skip-vs-tick oracle to
// the ablation settings the named machines never use: consumers that
// wait for full completion (VCL.DisableChaining), a fully replicated
// VCL issue stage (VCL.ReplicatedIssue) and the lane cores' decouple
// window at its blocking and a narrow setting (LaneCore.DecoupleWindow).
// Each changes a readiness or issue rule the event horizon and the idle
// replay share with the tick, so each cell's full metric snapshot must
// match between the two schedulers.
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
	ablations := []ablation{
		{"no-chaining", vectorMachines, vector, func(c *Config) { c.VCL.DisableChaining = true }},
		{"replicated-issue", vectorMachines, vector, func(c *Config) { c.VCL.ReplicatedIssue = true }},
		{"decouple-1", laneMachines, scalarOnly, func(c *Config) { c.LaneCore.DecoupleWindow = 1 }},
		{"decouple-4", laneMachines, scalarOnly, func(c *Config) { c.LaneCore.DecoupleWindow = 4 }},
	}
	for _, ab := range ablations {
		for _, machine := range ab.machines {
			for _, name := range ab.workloads {
				cfg := machine()
				ab.apply(&cfg)
				t.Run(ab.name+"/"+cfg.Name+"/"+name, func(t *testing.T) {
					w, err := workloads.ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					prog := w.Build(workloads.Params{
						Threads:    cfg.NumThreads,
						ScalarOnly: cfg.Lanes == 0 || cfg.LaneScalarMode,
					})
					run := func(noSkip bool) stats.Snapshot {
						c := cfg
						c.NoSkip = noSkip
						m, err := NewMachine(c, prog)
						if err != nil {
							t.Fatal(err)
						}
						defer m.Release()
						res, err := m.Run()
						if err != nil {
							t.Fatalf("NoSkip=%v: %v", noSkip, err)
						}
						return res.Metrics()
					}
					skip, tick := run(false), run(true)
					if len(skip) != len(tick) {
						t.Fatalf("metric count differs: %d skipping vs %d ticking", len(skip), len(tick))
					}
					for i := range skip {
						if skip[i] != tick[i] {
							t.Errorf("metric %s: %s skipping vs %s ticking",
								skip[i].Name, skip[i].FormatValue(), tick[i].FormatValue())
						}
					}
				})
			}
		}
	}
}
