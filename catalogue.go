package vlt

import "slices"

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
}

// catalogue lists every experiment once, in the order vltexp -all prints
// them.
var catalogue = []Experiment{
	{"table1", func(*Engine, int) (any, string, error) { return Table1(), Table1String(), nil }},
	{"table2", func(*Engine, int) (any, string, error) { return Table2(), Table2String(), nil }},
	{"table3", func(*Engine, int) (any, string, error) { return nil, Table3String(), nil }},
	{"table4", func(eng *Engine, scale int) (any, string, error) {
		rows, err := eng.Table4(scale)
		if err != nil {
			return nil, "", err
		}
		text, err := eng.Table4String(scale)
		return rows, text, err
	}},
	{"figure1", func(eng *Engine, scale int) (any, string, error) {
		d, err := eng.Figure1(scale)
		return d, d.String(), err
	}},
	{"figure3", func(eng *Engine, scale int) (any, string, error) {
		d, err := eng.Figure3(scale)
		return d, d.String(), err
	}},
	{"figure4", func(eng *Engine, scale int) (any, string, error) {
		d, err := eng.Figure4(scale)
		return d, d.String(), err
	}},
	{"figure5", func(eng *Engine, scale int) (any, string, error) {
		d, err := eng.Figure5(scale)
		return d, d.String(), err
	}},
	{"figure6", func(eng *Engine, scale int) (any, string, error) {
		d, err := eng.Figure6(scale)
		return d, d.String(), err
	}},
	{"ext16lanes", func(eng *Engine, scale int) (any, string, error) {
		d, err := eng.Extension16Lanes(scale)
		return d, d.String(), err
	}},
	{"extphase", func(eng *Engine, scale int) (any, string, error) {
		d, err := eng.ExtensionPhaseSwitching(scale)
		return d, d.String(), err
	}},
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
