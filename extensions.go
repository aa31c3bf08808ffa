package vlt

import (
	"vlt/internal/report"
	"vlt/internal/workloads"
)

// This file implements the paper's forward-looking studies: Section 6
// notes that "a base processor with 16 vector lanes would increase the
// usefulness of VLT for low-DLP applications", and Section 3.3 describes
// switching the number of VLT threads between program phases (reclaiming
// all lanes for serial sections). Neither is evaluated in the paper;
// both are measured here.

// Ext16Row compares VLT's benefit on an 8-lane and a 16-lane machine.
type Ext16Row struct {
	Workload string
	// SpeedupAt8 and SpeedupAt16 are V4-CMT's speedup over the same-width
	// base processor.
	SpeedupAt8  float64
	SpeedupAt16 float64
}

// Ext16Data is the 16-lane extension dataset.
type Ext16Data struct {
	Rows []Ext16Row
}

// Extension16Lanes measures the paper's 16-lane conjecture: on a wider
// machine a single short-vector thread leaves even more lanes idle, so
// the speedup VLT recovers should grow.
func (e *Engine) Extension16Lanes(scale int) (Ext16Data, error) {
	ws := workloads.ShortVectorSet()
	rows, err := e.grid("ext16lanes", ws, scale,
		column{MachineBase, Options{Lanes: 8}}, column{MachineV4CMT, Options{Lanes: 8}},
		column{MachineBase, Options{Lanes: 16}}, column{MachineV4CMT, Options{Lanes: 16}})
	var data Ext16Data
	for i, c := range rows {
		data.Rows = append(data.Rows, Ext16Row{Workload: ws[i].Name, SpeedupAt8: speedup(c[0], c[1]), SpeedupAt16: speedup(c[2], c[3])})
	}
	return data, err
}

// String renders the 16-lane study.
func (d Ext16Data) String() string {
	t := report.NewTable(
		"Extension: VLT-4 speedup over the same-width base, 8 vs 16 lanes",
		"workload", "8 lanes", "16 lanes")
	for _, r := range d.Rows {
		t.Row(r.Workload, r.SpeedupAt8, r.SpeedupAt16)
	}
	return t.String()
}

// ExtReclaimRow compares serial-phase lane reclamation on and off.
type ExtReclaimRow struct {
	Workload       string
	CyclesReclaim  uint64 // V4-CMT with the VLTCFG phase-switch idiom
	CyclesStatic   uint64 // V4-CMT with a fixed 4-way partitioning
	ReclaimSpeedup float64
}

// ExtReclaimData is the phase-switching extension dataset.
type ExtReclaimData struct {
	Rows []ExtReclaimRow
}

// ExtensionPhaseSwitching measures the paper's Section-3.3 software
// requirement in action: programs switch the number of VLT threads at
// parallel-region boundaries, so serial phases with vector work run with
// all lanes (and full vector length) instead of one thread's partition.
func (e *Engine) ExtensionPhaseSwitching(scale int) (ExtReclaimData, error) {
	ws := workloads.ShortVectorSet()
	rows, err := e.grid("extphase", ws, scale,
		column{MachineV4CMT, Options{}}, column{MachineV4CMT, Options{NoLaneReclaim: true}})
	var data ExtReclaimData
	for i, c := range rows {
		data.Rows = append(data.Rows, ExtReclaimRow{
			Workload:       ws[i].Name,
			CyclesReclaim:  c[0].res.Cycles,
			CyclesStatic:   c[1].res.Cycles,
			ReclaimSpeedup: speedup(c[1], c[0]),
		})
	}
	return data, err
}

// String renders the phase-switching study.
func (d ExtReclaimData) String() string {
	t := report.NewTable(
		"Extension: dynamic lane reclamation for serial phases (V4-CMT)",
		"workload", "with vltcfg", "static partitions", "reclaim speedup")
	for _, r := range d.Rows {
		t.Row(r.Workload, r.CyclesReclaim, r.CyclesStatic, r.ReclaimSpeedup)
	}
	return t.String()
}
