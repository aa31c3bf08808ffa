package vlt

import (
	"encoding/json"
	"fmt"

	"vlt/internal/runner"
)

// AllResults bundles every table, figure and extension study for
// machine-readable export (cmd/vltexp -json), e.g. to feed plotting
// scripts when regenerating the paper's figures graphically.
type AllResults struct {
	Table1  []Table1Row `json:"table1"`
	Table2  []Table2Row `json:"table2"`
	Table4  []Table4Row `json:"table4"`
	Figure1 Figure1Data `json:"figure1"`
	Figure3 Figure3Data `json:"figure3"`
	Figure4 Figure4Data `json:"figure4"`
	Figure5 Figure5Data `json:"figure5"`
	Figure6 Figure6Data `json:"figure6"`

	Extension16Lanes    Ext16Data      `json:"extension16Lanes"`
	ExtensionPhaseSwtch ExtReclaimData `json:"extensionPhaseSwitching"`
}

// CollectAll runs every experiment at the given scale and bundles the
// results. The drivers run concurrently: their cells interleave on the
// engine's slots and shared cells (e.g. every workload's base run) are
// simulated once.
func (e *Engine) CollectAll(scale int) (AllResults, error) {
	var out AllResults
	out.Table1 = Table1()
	out.Table2 = Table2()

	steps := []struct {
		name string
		run  func() error
	}{
		{"table 4", func() (err error) { out.Table4, err = e.Table4(scale); return }},
		{"figure 1", func() (err error) { out.Figure1, err = e.Figure1(scale); return }},
		{"figure 3", func() (err error) { out.Figure3, err = e.Figure3(scale); return }},
		{"figure 4", func() (err error) { out.Figure4, err = e.Figure4(scale); return }},
		{"figure 5", func() (err error) { out.Figure5, err = e.Figure5(scale); return }},
		{"figure 6", func() (err error) { out.Figure6, err = e.Figure6(scale); return }},
		{"extension 16 lanes", func() (err error) { out.Extension16Lanes, err = e.Extension16Lanes(scale); return }},
		{"extension phase switching", func() (err error) { out.ExtensionPhaseSwtch, err = e.ExtensionPhaseSwitching(scale); return }},
	}
	fns := make([]func() error, len(steps))
	for i, s := range steps {
		fns[i] = s.run
	}
	errs := runner.Parallel(fns...)
	for i, s := range steps {
		if errs[i] != nil {
			return out, fmt.Errorf("%s: %w", s.name, errs[i])
		}
	}
	return out, nil
}

// MarshalAll runs every experiment and returns indented JSON.
func (e *Engine) MarshalAll(scale int) ([]byte, error) {
	res, err := e.CollectAll(scale)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(res, "", "  ")
}
