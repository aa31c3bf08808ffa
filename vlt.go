// Package vlt is a cycle-level simulator of Vector Lane Threading (VLT),
// reproducing "Vector Lane Threading" (Rivoire, Schultz, Okuda, Kozyrakis,
// ICPP 2006). VLT partitions the lanes of a multi-lane vector processor
// across several threads so that applications with short vectors — or no
// vectors at all — can still saturate the vector datapaths.
//
// The package exposes:
//
//   - Run: execute one of the paper's nine calibrated workloads on any of
//     the paper's machine configurations and collect timing, utilization
//     and verification results;
//   - Engine: regenerate every table and figure of the paper's evaluation
//     (Engine.Figure1..Figure6, Engine.Table4 and the extension studies).
//     NewEngine(jobs) runs at most jobs simulations at once and memoizes
//     each unique cell for the engine's lifetime; NewEngineFrom memoizes
//     over another CellSource (vltd's cache tiers);
//   - Experiments: the catalogue of every table, figure and extension
//     study by name, in print order (what vltexp prints and vltd serves).
//     Engine.CollectAll runs every entry at once and returns each one's
//     dataset and text in catalogue order; Engine.MarshalAll exports the
//     datasets as one JSON object;
//   - Table1..Table3: the paper's static tables;
//   - Machines, Workloads: enumerate the available configurations.
//
// The heavy lifting lives in internal packages: internal/core (the VLT
// machine model), internal/scalar, internal/vcl, internal/lane (pipeline
// timing), internal/mem (caches), internal/vm (functional execution),
// internal/workloads (benchmarks), internal/area (the area model).
package vlt

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"vlt/internal/core"
	"vlt/internal/guard"
	"vlt/internal/workloads"
)

// Machine names a processor configuration from the paper.
type Machine string

// The paper's machine configurations.
const (
	// MachineBase is the base vector processor (Table 3): one 4-way OoO
	// scalar unit, 8 vector lanes, one thread.
	MachineBase Machine = "base"
	// MachineV2SMT runs 2 VLT vector threads on one SMT-2 scalar unit.
	MachineV2SMT Machine = "V2-SMT"
	// MachineV2CMP runs 2 VLT vector threads on two replicated 4-way SUs.
	MachineV2CMP Machine = "V2-CMP"
	// MachineV2CMPh runs 2 VLT vector threads on heterogeneous SUs.
	MachineV2CMPh Machine = "V2-CMP-h"
	// MachineV4SMT runs 4 VLT vector threads on one SMT-4 scalar unit.
	MachineV4SMT Machine = "V4-SMT"
	// MachineV4CMT runs 4 VLT vector threads on two SMT-2 scalar units.
	MachineV4CMT Machine = "V4-CMT"
	// MachineV4CMP runs 4 VLT vector threads on four replicated SUs.
	MachineV4CMP Machine = "V4-CMP"
	// MachineV4CMPh runs 4 VLT threads on one 4-way and three 2-way SUs.
	MachineV4CMPh Machine = "V4-CMP-h"
	// MachineCMT is the scalar-only baseline: two SMT-2 4-way cores, no
	// vector unit, 4 scalar threads (Section 7.2).
	MachineCMT Machine = "CMT"
	// MachineVLTScalar runs 8 scalar threads on the 8 vector lanes as
	// 2-way in-order cores (Section 5).
	MachineVLTScalar Machine = "VLT-scalar"
)

// Machines returns every configuration name, in the paper's order.
func Machines() []Machine {
	var out []Machine
	for _, name := range core.MachineNames() {
		out = append(out, Machine(name))
	}
	return out
}

// Workloads returns the names of the paper's nine benchmarks, in Table 4
// order.
func Workloads() []string {
	var out []string
	for _, w := range workloads.All() {
		out = append(out, w.Name)
	}
	return out
}

// Options tunes a Run.
type Options struct {
	// Scale multiplies the workload's calibrated default problem size.
	Scale int
	// Lanes overrides the lane count (1-16; default 8). For the VLT
	// machines it must split into one equal partition per thread
	// (vcl.CheckPartitions); Run refuses a count that does not before
	// simulating.
	Lanes int
	// Threads overrides the software thread count (defaults to the
	// machine's natural count: 1 for base, 2 for V2-*, 4 for V4-* and
	// CMT, 8 for VLT-scalar).
	Threads int
	// NoLaneReclaim builds the workload without the VLTCFG idiom that
	// hands all lanes to thread 0 for serial phases (the phase-switching
	// extension study's baseline).
	NoLaneReclaim bool
}

// Utilization is a percentage breakdown of the arithmetic-datapath cycles
// in the vector lanes (Figure 4's categories). Its JSON form is the util
// member of a /v1/run body.
type Utilization struct {
	BusyPct     float64 `json:"busy_pct"`
	PartIdlePct float64 `json:"part_idle_pct"`
	StalledPct  float64 `json:"stalled_pct"`
	AllIdlePct  float64 `json:"all_idle_pct"`
}

// Metric is one named measurement from the run's unified metric
// registry. Names are hierarchical and dot-separated (su0.fetch.instrs,
// vcl.util.busy, l2.bank_stalls); counters are exact in a float64 (they
// stay far below 2^53).
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// FormatValue renders the value: integral values in full decimal,
// everything else in shortest round-trip form.
func (m Metric) FormatValue() string {
	if m.Value == math.Trunc(m.Value) && math.Abs(m.Value) < 1e15 {
		return strconv.FormatFloat(m.Value, 'f', -1, 64)
	}
	return strconv.FormatFloat(m.Value, 'g', -1, 64)
}

// Metrics is the full machine-readable export of a run, sorted by name.
type Metrics []Metric

// Map returns the metrics as a name→value map.
func (ms Metrics) Map() map[string]float64 {
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out
}

// Get returns the named metric's value (0, false when absent).
func (ms Metrics) Get(name string) (float64, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// String renders one "name value" line per metric — the format of
// `vltexp -metrics` and the golden-metrics regression file.
func (ms Metrics) String() string {
	var sb strings.Builder
	for _, m := range ms {
		sb.WriteString(m.Name)
		sb.WriteByte(' ')
		sb.WriteString(m.FormatValue())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Result reports one simulation run.
type Result struct {
	Workload string
	Machine  Machine
	Threads  int

	Cycles     uint64
	Retired    uint64 // instructions retired across all threads
	VecIssued  uint64 // vector instructions issued
	VecElemOps uint64 // vector element operations executed

	Util Utilization

	// Workload characterization (Table 4 inputs).
	PercentVect    float64
	AvgVL          float64
	CommonVLs      []int
	OpportunityPct float64

	// Metrics is the run's full registry snapshot: every counter and
	// derived gauge from every layer, sorted by name. Every field above
	// but the identity is read from it; per-unit pipeline counts (su0.*,
	// lane3.*) are only here.
	Metrics Metrics

	// Verified is always true on a Result Run returns: a run whose
	// output does not verify is an error. Served bodies carry it.
	Verified bool
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Retired) / float64(r.Cycles)
}

// machineConfig resolves a machine name and the run's options to the
// machine configuration and its software thread count.
func machineConfig(m Machine, opt Options) (core.Config, int, error) {
	cfg, err := core.ByName(string(m), opt.Lanes, opt.Threads)
	if err != nil {
		return core.Config{}, 0, fmt.Errorf("vlt: %w", err)
	}
	// VLT_AUDIT's decision goes into the configuration, so the cell key
	// hashes the auditor the cell runs with (its counters are in every
	// snapshot) rather than an "auto" that resolves per process.
	cfg.Audit = guard.AuditOff
	if guard.AuditAuto.Enabled() {
		cfg.Audit = guard.AuditOn
	}
	return cfg, cfg.NumThreads, nil
}

// Run simulates the named workload on the named machine and returns the
// measured result. The workload's computed output is always verified
// against a host-side reference implementation; a result that does not
// verify is an error, so a returned Result has Verified set.
// Run always simulates (it does not consult any engine's cache); the
// experiment drivers route the same cells through an Engine instead.
func Run(workload string, m Machine, opt Options) (Result, error) {
	return simulateCell(workload, m, opt)
}

func utilizationPct(u UtilizationCounts) Utilization {
	total := float64(u.Total())
	if total == 0 {
		return Utilization{}
	}
	return Utilization{
		BusyPct:     100 * float64(u.Busy) / total,
		PartIdlePct: 100 * float64(u.PartIdle) / total,
		StalledPct:  100 * float64(u.Stalled) / total,
		AllIdlePct:  100 * float64(u.AllIdle) / total,
	}
}
