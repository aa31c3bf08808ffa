package main

import "time"

// metricDef declares one metric the harness emits. BENCHMARK.json at the
// repository root declares the same names, units and directions (and
// the regression bound of each end-to-end metric); a test keeps the two
// in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the simulator or of vltd sees,
// printed by every untraced run. An operation is the workload's unit of
// work (README.md names it per workload). The timed ones are computed
// per round and reported for the run's best round: the lowest latency,
// the highest throughput. Contention from other tenants of a shared host
// only ever adds time, so the best round is the one nearest the
// program's own cost; README.md gives the spreads that chose it over the
// median. On explore and serve-cold a round mixes operations of several
// kinds, so the step.* metrics below time each kind under its own name.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},      // median of the run's set-ups
	{"op_ms_p50", "ms", "lower"},   // median operation latency of a round
	{"op_ms_p99", "ms", "lower"},   // nearest-rank 99th percentile latency of a round
	{"ops_per_s", "1/s", "higher"}, // operations completed per second of a round
	{"rss_peak_mb", "MB", "lower"}, // peak resident memory of the process
}

// perLayer are the metrics of single layers, printed by traced runs.
// A layer a workload bypasses reports 0 for its counts and shares; the
// probe timings (probe.go) run the same calls on every workload.
var perLayer = []metricDef{
	// vlt Engine and internal/runner Pool, per operation.
	{"engine.cells_requested", "count", "lower"},
	{"engine.cells_simulated", "count", "lower"},

	// Shares of CPU profile samples in the traced segment (profile.go).
	{"prof.run_until_pct", "%", "lower"},
	{"prof.scheduler_pct", "%", "lower"},
	{"prof.machine_new_pct", "%", "lower"},
	{"prof.scalar_tick_pct", "%", "lower"},
	{"prof.vcl_tick_pct", "%", "lower"},
	{"prof.lane_tick_pct", "%", "lower"},
	{"prof.mem_pct", "%", "lower"},
	{"prof.vm_step_pct", "%", "lower"},
	{"prof.pipe_pct", "%", "lower"},
	{"prof.gc_pct", "%", "lower"},
	{"prof.build_pct", "%", "lower"},
	{"prof.verify_pct", "%", "lower"},
	{"prof.snapshot_pct", "%", "lower"},
	{"prof.fork_pct", "%", "lower"},
	{"prof.serve_pct", "%", "lower"},
	{"prof.nethttp_pct", "%", "lower"},
	{"prof.syscall_pct", "%", "lower"},

	// Simulated work per round, summed from Result.Metrics over the
	// explore cells; exact, so a change that only claims simulator speed
	// must leave every one unchanged.
	{"sim.cycles", "count", "lower"},
	{"sim.retired", "count", "lower"},
	{"sim.vcl_issued", "count", "lower"},
	{"sim.vcl_elem_ops", "count", "lower"},
	{"sim.l2_reads", "count", "lower"},
	{"sim.l2_misses", "count", "lower"},
	{"sim.l2_bank_stalls", "count", "lower"},
	{"search.runs", "count", "lower"},

	// Each kind of operation of the mixed workloads, timed in the
	// untraced half of a traced run (steps below).
	{"step.sim_mcycles_per_s", "Mcycles/s", "higher"},
	{"step.search_s", "s", "lower"},
	{"step.sweep_cold_s", "s", "lower"},
	{"step.experiments_warm_s", "s", "lower"},
	{"step.restart_grid_ms", "ms", "lower"},

	// Go heap allocation per operation in the traced segment.
	{"gc.alloc_mb_per_op", "MB", "lower"},

	// vltd counters per round, scraped from /metricsz.
	{"cache.hits", "count", "higher"},
	{"cache.misses", "count", "lower"},
	{"cache.evictions", "count", "lower"},
	{"flight.executed", "count", "lower"},
	{"flight.coalesced", "count", "higher"},
	{"flight.rejected", "count", "lower"},
	{"store.hits", "count", "higher"},
	{"store.writes", "count", "lower"},
	{"store.write_fails", "count", "lower"},
	{"store.corrupt", "count", "lower"},

	// Probe timings: direct calls into one layer each, and one serial
	// regeneration (probe.go).
	{"expall.serial_s", "s", "lower"},
	{"sim.host_ns_per_cycle", "ns", "lower"},
	{"sim.host_ns_per_instr", "ns", "lower"},
	{"fork.ms", "ms", "lower"},
	{"replay_prefix.ms", "ms", "lower"},
	{"vet.cell_ms_p50", "ms", "lower"},
	{"key.cellkey_us", "us", "lower"},
	{"key.etag_us", "us", "lower"},
	{"render.run_us", "us", "lower"},
	{"handler.hit_us_p50", "us", "lower"},
	{"tier.hit_us_p50", "us", "lower"},
	{"tier.not_modified_us_p50", "us", "lower"},
	{"tier.experiment_us_p50", "us", "lower"},
	{"tier.sweep_hot_ms_p50", "ms", "lower"},
	{"store.open_ms", "ms", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.put_ms", "ms", "lower"},

	// Model accuracy against the paper's Table 4; only a model change
	// moves it.
	{"model.table4_vect_err_pts", "pts", "lower"},

	// Throughput lost to tracing: the traced segment against the
	// untraced one of the same run.
	{"trace.overhead_pct", "%", "lower"},
}

// stepDef reports one kind of operation under its own name: per round,
// the kind's total time (sum) or its median latency; a run reports the
// median over its rounds. A workload without the kind reports 0.
type stepDef struct {
	metric string
	op     string // the name the workload times the operation under
	sum    bool
	unit   time.Duration
}

var steps = []stepDef{
	{"step.search_s", opSearch, true, time.Second},
	{"step.sweep_cold_s", opGridCold, true, time.Second},
	{"step.experiments_warm_s", opExperiments, true, time.Second},
	{"step.restart_grid_ms", opRestart, false, time.Millisecond},
}

// The operation names the workloads time their work under.
const (
	opRegenerate  = "regenerate"  // reproduce
	opCell        = "cell"        // explore
	opSearch      = "search"      // explore
	opRun         = "run"         // serve-hot
	opGridCold    = "grid-cold"   // serve-cold
	opExperiments = "experiments" // serve-cold
	opRestart     = "restart"     // serve-cold
)
