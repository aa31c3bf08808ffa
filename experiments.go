package vlt

import (
	"fmt"

	"vlt/internal/area"
	"vlt/internal/core"
	"vlt/internal/report"
	"vlt/internal/vcl"
	"vlt/internal/workloads"
)

// This file regenerates every table and figure of the paper's evaluation.
// Absolute cycle counts come from this repository's simulator, not the
// authors' testbed, so the claims being reproduced are the shapes: who
// wins, by roughly what factor, and where the crossovers fall. See
// EXPERIMENTS.md for the paper-versus-measured record.

// Figure1Lanes are the lane counts swept by Figure 1.
var Figure1Lanes = []int{1, 2, 4, 8}

// Figure1Row is one workload's lane-scaling curve.
type Figure1Row struct {
	Workload string
	// Speedup[i] is cycles(1 lane)/cycles(Figure1Lanes[i]).
	Speedup []float64
}

// Figure1Data is the full Figure 1 dataset.
type Figure1Data struct {
	Rows []Figure1Row
}

// Figure1 sweeps the base processor's lane count from 1 to 8 for all nine
// applications (paper Figure 1). A vector-free base program
// (asm.Program.VectorFree) cannot see the lane count, so each of its
// columns is the base machine's default-lane cell, simulated once.
func (e *Engine) Figure1(scale int) (Figure1Data, error) {
	ws := workloads.All()
	var lanes, flat []column
	for _, l := range Figure1Lanes {
		lanes = append(lanes, column{MachineBase, Options{Lanes: l}})
		flat = append(flat, column{m: MachineBase})
	}
	rows, err := e.gridOf("figure1", ws, scale, func(w *workloads.Workload) []column {
		if spec, err := resolveCell(w.Name, MachineBase, Options{Scale: scale}); err == nil && spec.w.Build(spec.params).VectorFree() {
			return flat
		}
		return lanes
	})
	var data Figure1Data
	for i, row := range rows {
		r := Figure1Row{Workload: ws[i].Name}
		for _, c := range row {
			r.Speedup = append(r.Speedup, speedup(row[0], c)) // Figure1Lanes[0] is 1
		}
		data.Rows = append(data.Rows, r)
	}
	return data, err
}

// String renders Figure 1 as a table.
func (d Figure1Data) String() string {
	hdr := []string{"workload"}
	for _, l := range Figure1Lanes {
		hdr = append(hdr, fmt.Sprintf("%d lane(s)", l))
	}
	t := report.NewTable("Figure 1: speedup vs number of vector lanes (base processor)", hdr...)
	for _, r := range d.Rows {
		cells := []any{r.Workload}
		for _, s := range r.Speedup {
			cells = append(cells, s)
		}
		t.Row(cells...)
	}
	return t.String()
}

// Figure3Row is one workload's VLT speedup with 2 and 4 vector threads.
type Figure3Row struct {
	Workload string
	V2, V4   float64 // speedup over the 8-lane base processor
}

// Figure3Data is the full Figure 3 dataset.
type Figure3Data struct {
	Rows []Figure3Row
}

// Figure3 measures the VLT speedup of the short-vector workloads with 2
// threads (V2-CMP) and 4 threads (V4-CMP) over the base processor (paper
// Figure 3).
func (e *Engine) Figure3(scale int) (Figure3Data, error) {
	ws := workloads.ShortVectorSet()
	rows, err := e.grid("figure3", ws, scale, on(MachineBase, MachineV2CMP, MachineV4CMP)...)
	var data Figure3Data
	for i, c := range rows {
		data.Rows = append(data.Rows, Figure3Row{Workload: ws[i].Name, V2: speedup(c[0], c[1]), V4: speedup(c[0], c[2])})
	}
	return data, err
}

// String renders Figure 3 as a table.
func (d Figure3Data) String() string {
	t := report.NewTable("Figure 3: VLT speedup over base (vector threads)",
		"workload", "VLT-2 threads", "VLT-4 threads")
	for _, r := range d.Rows {
		t.Row(r.Workload, r.V2, r.V4)
	}
	return t.String()
}

// UtilizationCounts is the Figure-4 datapath-cycle census in absolute
// datapath-cycles: the vector unit's own counters, read back from a
// run's vcl.util.* metrics.
type UtilizationCounts = vcl.Utilization

// Figure4Row is one workload's utilization breakdown on the base, VLT-2
// and VLT-4 machines, in datapath-cycles (normalize by Base.Total() to
// reproduce the paper's bars).
type Figure4Row struct {
	Workload       string
	Base, V2, V4   UtilizationCounts
	BaseCyc, V2Cyc uint64
	V4Cyc          uint64
}

// Figure4Data is the full Figure 4 dataset.
type Figure4Data struct {
	Rows []Figure4Row
}

// Figure4 measures the arithmetic-datapath utilization breakdown (busy /
// partly idle / stalled / all idle) of the short-vector workloads on the
// base and VLT configurations (paper Figure 4).
func (e *Engine) Figure4(scale int) (Figure4Data, error) {
	ws := workloads.ShortVectorSet()
	rows, err := e.grid("figure4", ws, scale, on(MachineBase, MachineV2CMP, MachineV4CMP)...)
	var data Figure4Data
	for i, c := range rows {
		data.Rows = append(data.Rows, Figure4Row{
			Workload: ws[i].Name,
			Base:     c[0].raw, V2: c[1].raw, V4: c[2].raw,
			BaseCyc: c[0].res.Cycles, V2Cyc: c[1].res.Cycles, V4Cyc: c[2].res.Cycles,
		})
	}
	return data, err
}

// String renders Figure 4 as a table of percentages of the base total
// (lower total = faster execution, as in the paper).
func (d Figure4Data) String() string {
	t := report.NewTable(
		"Figure 4: datapath utilization normalized to base execution (percent of base datapath-cycles)",
		"workload", "config", "busy", "partly idle", "stalled", "all idle", "total")
	for _, r := range d.Rows {
		baseTotal := float64(r.Base.Total())
		add := func(name string, u UtilizationCounts) {
			t.Row(r.Workload, name,
				100*float64(u.Busy)/baseTotal,
				100*float64(u.PartIdle)/baseTotal,
				100*float64(u.Stalled)/baseTotal,
				100*float64(u.AllIdle)/baseTotal,
				100*float64(u.Total())/baseTotal)
		}
		add("base", r.Base)
		add("VLT-2", r.V2)
		add("VLT-4", r.V4)
	}
	return t.String()
}

// Figure5Configs are the scalar-unit design points evaluated by Figure 5.
var Figure5Configs = []Machine{
	MachineV2SMT, MachineV2CMP, MachineV4SMT, MachineV4CMT, MachineV4CMP, MachineV4CMPh,
}

// Figure5Row is one workload's speedup under every Figure-5 configuration.
type Figure5Row struct {
	Workload string
	Speedup  map[Machine]float64 // over the base processor
}

// Figure5Data is the full Figure 5 dataset.
type Figure5Data struct {
	Rows []Figure5Row
}

// Figure5 evaluates the scalar-unit design space for vector threads
// (paper Figure 5): multiplexed (SMT), replicated (CMP), hybrid (CMT) and
// heterogeneous (CMP-h) scalar units.
func (e *Engine) Figure5(scale int) (Figure5Data, error) {
	ws := workloads.ShortVectorSet()
	rows, err := e.grid("figure5", ws, scale, on(append([]Machine{MachineBase}, Figure5Configs...)...)...)
	var data Figure5Data
	for i, c := range rows {
		r := Figure5Row{Workload: ws[i].Name, Speedup: map[Machine]float64{}}
		for j, m := range Figure5Configs {
			r.Speedup[m] = speedup(c[0], c[j+1])
		}
		data.Rows = append(data.Rows, r)
	}
	return data, err
}

// String renders Figure 5 as a table.
func (d Figure5Data) String() string {
	hdr := []string{"workload"}
	for _, m := range Figure5Configs {
		hdr = append(hdr, string(m))
	}
	t := report.NewTable("Figure 5: VLT design space, speedup over base", hdr...)
	for _, r := range d.Rows {
		cells := []any{r.Workload}
		for _, m := range Figure5Configs {
			cells = append(cells, r.Speedup[m])
		}
		t.Row(cells...)
	}
	return t.String()
}

// Figure6Row is one scalar workload's VLT-versus-CMT comparison.
type Figure6Row struct {
	Workload   string
	VLTOverCMT float64 // CMT cycles / VLT-scalar cycles
	VLTCycles  uint64
	CMTCycles  uint64
}

// Figure6Data is the full Figure 6 dataset.
type Figure6Data struct {
	Rows []Figure6Row
}

// Figure6 compares 8 VLT scalar threads on the vector lanes against 4
// threads on the CMT baseline (two 4-way SMT-2 cores) for the
// non-vectorizable workloads (paper Figure 6).
func (e *Engine) Figure6(scale int) (Figure6Data, error) {
	ws := workloads.ScalarSet()
	rows, err := e.grid("figure6", ws, scale, on(MachineVLTScalar, MachineCMT)...)
	var data Figure6Data
	for i, c := range rows {
		data.Rows = append(data.Rows, Figure6Row{
			Workload:   ws[i].Name,
			VLTOverCMT: speedup(c[1], c[0]),
			VLTCycles:  c[0].res.Cycles,
			CMTCycles:  c[1].res.Cycles,
		})
	}
	return data, err
}

// String renders Figure 6 as a table.
func (d Figure6Data) String() string {
	t := report.NewTable(
		"Figure 6: 8 VLT scalar threads on lanes vs 4 threads on CMT (relative performance)",
		"workload", "VLT/CMT", "VLT cycles", "CMT cycles")
	for _, r := range d.Rows {
		t.Row(r.Workload, r.VLTOverCMT, r.VLTCycles, r.CMTCycles)
	}
	return t.String()
}

// Table1Row is one component-area entry (paper Table 1).
type Table1Row struct {
	Component string
	AreaMM2   float64
}

// Table1 returns the component area estimates (0.10 µm CMOS).
func Table1() []Table1Row {
	return []Table1Row{
		{"2-way scalar unit + L1 caches", area.SU2Way},
		{"4-way scalar unit + L1 caches", area.SU4Way},
		{"2-way VCL", area.VCL2Way},
		{"Vector lane", area.VectorLane},
		{"L2 cache (4MB)", area.L2Cache4MB},
		{"Base vector processor (4-way SU, 8 vector lanes)", area.Base()},
	}
}

// Table1String renders Table 1.
func Table1String() string {
	t := report.NewTable("Table 1: area breakdown for vector processor components",
		"component", "area (mm^2)")
	for _, r := range Table1() {
		t.Row(r.Component, r.AreaMM2)
	}
	return t.String()
}

// Table2Row is one VLT configuration's area overhead (paper Table 2).
type Table2Row struct {
	Config      string
	Description string
	OverheadPct float64
}

// Table2 returns the area overhead of each VLT configuration over the
// base vector processor.
func Table2() []Table2Row {
	desc := map[string]string{
		"V2-SMT":   "2 VLT threads, 1 SMT SU",
		"V4-SMT":   "4 VLT threads, 1 SMT SU",
		"V2-CMP":   "2 VLT threads, 2 SUs",
		"V2-CMP-h": "2 VLT threads, 2 heter. SUs",
		"V4-CMP":   "4 VLT threads, 4 SUs",
		"V4-CMP-h": "4 VLT threads, 4 heter. SUs",
		"V4-CMT":   "4 VLT threads, 2 SMT SUs",
	}
	var out []Table2Row
	for _, c := range area.Table2() {
		out = append(out, Table2Row{Config: c.Name, Description: desc[c.Name], OverheadPct: c.OverheadPct()})
	}
	return out
}

// Table2String renders Table 2.
func Table2String() string {
	t := report.NewTable("Table 2: percentage area increase over the base vector processor",
		"config", "description", "% area increase")
	for _, r := range Table2() {
		t.Row(r.Config, r.Description, r.OverheadPct)
	}
	return t.String()
}

// Table3String renders the base machine parameters (paper Table 3) from
// the 8-lane base machine's configuration.
func Table3String() string {
	c := core.Base(8)
	su, l1, l2 := c.SUs[0], c.SUs[0].L1D, c.L2
	t := report.NewTable("Table 3: base vector processor parameters", "component", "parameters")
	t.Row("Scalar unit", fmt.Sprintf("%d-way OoO, %d-entry window/ROB, %d ALUs, %d mem ports",
		su.Width, su.WindowSize, su.NumALU, su.NumMemPorts))
	t.Row("L1 caches", fmt.Sprintf("%d-KByte, %d-way associative", l1.SizeBytes>>10, l1.Assoc))
	t.Row("Vector control", fmt.Sprintf("%d-way issue, %d-entry VIQ, %d-entry vector window",
		c.VCL.IssueWidth, c.VCL.VIQSize, c.VCL.WindowSize))
	t.Row("Vector lanes", fmt.Sprintf("%d lanes, %d arithmetic units, %d memory ports, %d phys vregs",
		c.Lanes, vcl.NumVFUs, vcl.NumMemPorts, c.VCL.PhysRegs))
	t.Row("Memory system", fmt.Sprintf("%d-MByte L2, %d-way assoc, %d banks, %d-cycle hit, %d-cycle miss",
		l2.SizeBytes>>20, l2.Assoc, l2.Banks, l2.HitLat, l2.MissLat))
	return t.String()
}

// Table4Row is one workload's measured characterization next to the
// paper's published values.
type Table4Row struct {
	Workload string
	Class    string

	MeasuredPercentVect float64
	PaperPercentVect    float64
	MeasuredAvgVL       float64
	PaperAvgVL          float64
	MeasuredCommonVLs   []int
	PaperCommonVLs      []int
	MeasuredOppPct      float64
	PaperOppPct         float64
}

// Table4Data is the full Table 4 dataset, one row per workload.
type Table4Data []Table4Row

// Table4 measures each workload's operation census and VLT opportunity on
// the base processor and pairs it with the paper's Table 4.
func (e *Engine) Table4(scale int) (Table4Data, error) {
	ws := workloads.All()
	rows, err := e.grid("table4", ws, scale, on(MachineBase)...)
	var out Table4Data
	for i, c := range rows {
		w, res := ws[i], c[0].res
		out = append(out, Table4Row{
			Workload:            w.Name,
			Class:               w.Class.String(),
			MeasuredPercentVect: res.PercentVect,
			PaperPercentVect:    w.Paper.PercentVect,
			MeasuredAvgVL:       res.AvgVL,
			PaperAvgVL:          w.Paper.AvgVL,
			MeasuredCommonVLs:   res.CommonVLs,
			PaperCommonVLs:      w.Paper.CommonVLs,
			MeasuredOppPct:      res.OpportunityPct,
			PaperOppPct:         w.Paper.OpportunityPct,
		})
	}
	return out, err
}

// Table4String runs Table4 and renders it.
func (e *Engine) Table4String(scale int) (string, error) {
	d, err := e.Table4(scale)
	return d.String(), err
}

// String renders Table 4 (measured vs paper).
func (d Table4Data) String() string {
	t := report.NewTable("Table 4: application characteristics (measured | paper)",
		"workload", "%vect", "avg VL", "common VLs", "%opportunity")
	for _, r := range d {
		t.Row(r.Workload,
			fmt.Sprintf("%.0f | %.0f", r.MeasuredPercentVect, r.PaperPercentVect),
			fmt.Sprintf("%.1f | %.1f", r.MeasuredAvgVL, r.PaperAvgVL),
			fmt.Sprintf("%v | %v", r.MeasuredCommonVLs, r.PaperCommonVLs),
			fmt.Sprintf("%.0f | %.0f", r.MeasuredOppPct, r.PaperOppPct))
	}
	return t.String()
}
