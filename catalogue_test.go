package vlt

import (
	"slices"
	"testing"
)

// TestExperimentsCatalogue pins the catalogue's names and order (the
// order vltexp -all prints), and that every name looks up its own entry.
func TestExperimentsCatalogue(t *testing.T) {
	want := []string{"table1", "table2", "table3", "table4", "figure1",
		"figure3", "figure4", "figure5", "figure6", "ext16lanes", "extphase"}
	var got []string
	for _, e := range Experiments() {
		got = append(got, e.Name)
		if l, ok := LookupExperiment(e.Name); !ok || l.Name != e.Name {
			t.Errorf("LookupExperiment(%q) = %q, %v", e.Name, l.Name, ok)
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("catalogue = %v, want %v", got, want)
	}
	if _, ok := LookupExperiment("figure2"); ok {
		t.Error("LookupExperiment found figure2; the paper has no Figure 2")
	}
	Experiments()[0].Name = "clobbered"
	if Experiments()[0].Name != "table1" {
		t.Error("Experiments returned the catalogue itself, not a copy")
	}
}
