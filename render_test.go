package vlt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The String renderers are the user-facing output of cmd/vltexp; pin
// their structure with synthetic datasets (no simulation needed).

func TestFigure1DataString(t *testing.T) {
	d := Figure1Data{Rows: []Figure1Row{
		{Workload: "mxm", Speedup: []float64{1, 2, 4, 7.2}},
		{Workload: "ocean", Speedup: []float64{1, 1, 1, 1}},
	}}
	out := d.String()
	for _, want := range []string{"Figure 1", "mxm", "ocean", "7.20", "8 lane(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFigure3DataString(t *testing.T) {
	d := Figure3Data{Rows: []Figure3Row{{Workload: "bt", V2: 1.47, V4: 1.89}}}
	out := d.String()
	for _, want := range []string{"Figure 3", "bt", "1.47", "1.89"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFigure4DataString(t *testing.T) {
	d := Figure4Data{Rows: []Figure4Row{{
		Workload: "trfd",
		Base:     UtilizationCounts{Busy: 10, Stalled: 40, AllIdle: 50},
		V2:       UtilizationCounts{Busy: 10, Stalled: 20, AllIdle: 25},
		V4:       UtilizationCounts{Busy: 10, Stalled: 10, AllIdle: 12},
	}}}
	out := d.String()
	if !strings.Contains(out, "Figure 4") || !strings.Contains(out, "VLT-4") {
		t.Errorf("bad rendering:\n%s", out)
	}
	// Base total normalizes to 100%.
	if !strings.Contains(out, "100.00") {
		t.Errorf("base bar should be 100%%:\n%s", out)
	}
}

func TestFigure5DataString(t *testing.T) {
	d := Figure5Data{Rows: []Figure5Row{{
		Workload: "mpenc",
		Speedup: map[Machine]float64{
			MachineV2SMT: 1.2, MachineV2CMP: 1.4, MachineV4SMT: 1.3,
			MachineV4CMT: 1.55, MachineV4CMP: 1.56, MachineV4CMPh: 1.54,
		},
	}}}
	out := d.String()
	for _, m := range Figure5Configs {
		if !strings.Contains(out, string(m)) {
			t.Errorf("missing column %s:\n%s", m, out)
		}
	}
}

func TestFigure6DataString(t *testing.T) {
	d := Figure6Data{Rows: []Figure6Row{
		{Workload: "radix", VLTOverCMT: 1.47, VLTCycles: 49189, CMTCycles: 72069},
	}}
	out := d.String()
	for _, want := range []string{"Figure 6", "radix", "1.47", "49189"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestExtensionDataStrings(t *testing.T) {
	e16 := Ext16Data{Rows: []Ext16Row{{Workload: "bt", SpeedupAt8: 1.68, SpeedupAt16: 1.69}}}
	if out := e16.String(); !strings.Contains(out, "16 lanes") || !strings.Contains(out, "bt") {
		t.Errorf("Ext16Data rendering wrong:\n%s", out)
	}
	er := ExtReclaimData{Rows: []ExtReclaimRow{
		{Workload: "mpenc", CyclesReclaim: 100, CyclesStatic: 110, ReclaimSpeedup: 1.1},
	}}
	if out := er.String(); !strings.Contains(out, "vltcfg") || !strings.Contains(out, "1.10") {
		t.Errorf("ExtReclaimData rendering wrong:\n%s", out)
	}
}

func TestUtilizationCountsTotal(t *testing.T) {
	u := UtilizationCounts{Busy: 1, PartIdle: 2, Stalled: 3, AllIdle: 4}
	if u.Total() != 10 {
		t.Errorf("Total = %d, want 10", u.Total())
	}
}

func TestTable4StringRendering(t *testing.T) {
	s, err := testEngine.Table4String(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range Workloads() {
		if !strings.Contains(s, w) {
			t.Errorf("Table 4 missing %s", w)
		}
	}
	if !strings.Contains(s, "|") {
		t.Error("Table 4 should render measured | paper pairs")
	}
}

// TestCollectAllAndJSON pins the -json export byte for byte: the text
// `vltexp -json` prints is MarshalAll's output and a newline. Regenerate
// with `go test -run TestCollectAllAndJSON -update .`.
func TestCollectAllAndJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	data, err := testEngine.MarshalAll(1)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data) + "\n"
	golden := filepath.Join("testdata", "expall_json.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("MarshalAll(1) (%d bytes) drifted from %s (%d bytes): diff it against `vltexp -json`, and regenerate with -update if intended",
			len(got), golden, len(want))
	}
}
