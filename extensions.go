package vlt

import (
	"fmt"

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
	ext16Lanes := []int{8, 16}
	type pair struct{ base, v4 *cellFuture }
	futs := make([][]pair, len(ws))
	for i, w := range ws {
		for _, lanes := range ext16Lanes {
			futs[i] = append(futs[i], pair{
				base: e.submit(w.Name, MachineBase, Options{Scale: scale, Lanes: lanes}),
				v4:   e.submit(w.Name, MachineV4CMT, Options{Scale: scale, Lanes: lanes}),
			})
		}
	}
	var data Ext16Data
	for i, w := range ws {
		row := Ext16Row{Workload: w.Name}
		for j, lanes := range ext16Lanes {
			base, _, err := futs[i][j].base.wait()
			if err != nil {
				return data, fmt.Errorf("ext16 (%s base %dL): %w", w.Name, lanes, err)
			}
			v4, _, err := futs[i][j].v4.wait()
			if err != nil {
				return data, fmt.Errorf("ext16 (%s V4 %dL): %w", w.Name, lanes, err)
			}
			s := float64(base.Cycles) / float64(v4.Cycles)
			if lanes == 8 {
				row.SpeedupAt8 = s
			} else {
				row.SpeedupAt16 = s
			}
		}
		data.Rows = append(data.Rows, row)
	}
	return data, nil
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
	type pair struct{ re, st *cellFuture }
	futs := make([]pair, len(ws))
	for i, w := range ws {
		futs[i] = pair{
			re: e.submit(w.Name, MachineV4CMT, Options{Scale: scale}),
			st: e.submit(w.Name, MachineV4CMT, Options{Scale: scale, NoLaneReclaim: true}),
		}
	}
	var data ExtReclaimData
	for i, w := range ws {
		re, _, err := futs[i].re.wait()
		if err != nil {
			return data, fmt.Errorf("reclaim (%s): %w", w.Name, err)
		}
		st, _, err := futs[i].st.wait()
		if err != nil {
			return data, fmt.Errorf("static (%s): %w", w.Name, err)
		}
		data.Rows = append(data.Rows, ExtReclaimRow{
			Workload:       w.Name,
			CyclesReclaim:  re.Cycles,
			CyclesStatic:   st.Cycles,
			ReclaimSpeedup: float64(st.Cycles) / float64(re.Cycles),
		})
	}
	return data, nil
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
