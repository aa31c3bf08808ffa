package vlt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"

	"vlt/internal/runner"
)

// Experiment is one reproducible artifact of the paper's evaluation: a
// table, a figure or an extension study. Run computes it on eng at scale
// and returns its dataset (nil for a table with no rows to export) and
// its rendered text.
type Experiment struct {
	// Name is "tableN" or "figureN" after the paper's numbering, or
	// "ext..." for an extension study. vltd serves an experiment under
	// its name (/v1/experiment?name=...).
	Name string
	Run  func(eng *Engine, scale int) (data any, text string, err error)

	// key names the dataset in MarshalAll's object ("" for no dataset).
	key string
}

// catalogue lists every experiment once, in the order vltexp -all prints
// them.
var catalogue = []Experiment{
	{"table1", func(*Engine, int) (any, string, error) { return Table1(), Table1String(), nil }, "table1"},
	{"table2", func(*Engine, int) (any, string, error) { return Table2(), Table2String(), nil }, "table2"},
	{"table3", func(*Engine, int) (any, string, error) { return nil, Table3String(), nil }, ""},
	{"table4", driver((*Engine).Table4), "table4"},
	{"figure1", driver((*Engine).Figure1), "figure1"},
	{"figure3", driver((*Engine).Figure3), "figure3"},
	{"figure4", driver((*Engine).Figure4), "figure4"},
	{"figure5", driver((*Engine).Figure5), "figure5"},
	{"figure6", driver((*Engine).Figure6), "figure6"},
	{"ext16lanes", driver((*Engine).Extension16Lanes), "extension16Lanes"},
	{"extphase", driver((*Engine).ExtensionPhaseSwitching), "extensionPhaseSwitching"},
}

// driver adapts an engine driver to Experiment.Run: the dataset and its
// String rendering.
func driver[D fmt.Stringer](run func(*Engine, int) (D, error)) func(*Engine, int) (any, string, error) {
	return func(eng *Engine, scale int) (any, string, error) {
		d, err := run(eng, scale)
		if err != nil {
			return nil, "", err
		}
		return d, d.String(), nil
	}
}

// Experiments returns the catalogue: Tables 1-4, Figures 1 and 3-6, then
// the extension studies. It is the one list of experiment names; vltd and
// vltexp both look experiments up in it.
func Experiments() []Experiment { return slices.Clone(catalogue) }

// LookupExperiment returns the catalogue entry called name.
func LookupExperiment(name string) (Experiment, bool) {
	i := slices.IndexFunc(catalogue, func(x Experiment) bool { return x.Name == name })
	if i < 0 {
		return Experiment{}, false
	}
	return catalogue[i], true
}

// ExperimentOutput is what one catalogue entry's Run returned.
type ExperimentOutput struct {
	Name string
	Data any // nil for an entry with no dataset
	Text string
}

// CollectAll runs every catalogue entry at scale and returns their
// outputs in catalogue order. The entries run concurrently: their cells
// interleave on the engine's slots, and a cell several entries share
// (e.g. every workload's base run) is requested from the source once.
func (e *Engine) CollectAll(scale int) ([]ExperimentOutput, error) {
	out := make([]ExperimentOutput, len(catalogue))
	fns := make([]func() error, len(catalogue))
	for i, x := range catalogue {
		fns[i] = func() (err error) {
			out[i].Name = x.Name
			out[i].Data, out[i].Text, err = x.Run(e, scale)
			return err
		}
	}
	for _, err := range runner.Parallel(fns...) {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// MarshalAll runs every experiment and returns indented JSON for
// plotting scripts (cmd/vltexp -json): one object member per catalogue
// entry with a dataset, under its key, in catalogue order.
func (e *Engine) MarshalAll(scale int) ([]byte, error) {
	outs, err := e.CollectAll(scale)
	if err != nil {
		return nil, err
	}
	var members [][]byte
	for i, o := range outs {
		if catalogue[i].key == "" {
			continue
		}
		data, err := json.Marshal(o.Data)
		if err != nil {
			return nil, err
		}
		members = append(members, fmt.Appendf(nil, "%q:%s", catalogue[i].key, data))
	}
	// Marshal then Indent is exactly what json.MarshalIndent does.
	var out bytes.Buffer
	err = json.Indent(&out, fmt.Appendf(nil, "{%s}", bytes.Join(members, []byte(","))), "", "  ")
	return out.Bytes(), err
}
