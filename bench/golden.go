package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strings"

	"vlt"
	"vlt/internal/api"
	"vlt/internal/workloads"
)

// The goldens are generated from the program itself (go test -run
// TestGoldens -update) and reviewed like any other diff: a change that
// moves one is a change in the program's output.
var (
	//go:embed testdata/expall.golden
	expallGolden string
	//go:embed testdata/digests.txt
	digestsFile string
	//go:embed testdata/explore.golden
	exploreGolden string
)

// experimentNames are the /v1/experiment drivers vltd serves.
var experimentNames = []string{
	"ext16lanes", "extphase", "figure1", "figure3", "figure4", "figure5",
	"figure6", "table1", "table2", "table3", "table4",
}

// gridSweeps are the two /v1/sweep requests that together cover the
// valid paper grid at scale 1: the vector workloads on the eight vector
// machines, and the scalar workloads on all ten.
func gridSweeps() [2]api.SweepRequest {
	var vec, sca api.SweepRequest
	for _, w := range workloads.All() {
		if w.Class == workloads.ScalarParallel {
			sca.Workloads = append(sca.Workloads, w.Name)
		} else {
			vec.Workloads = append(vec.Workloads, w.Name)
		}
	}
	for _, m := range vlt.Machines() {
		sca.Machines = append(sca.Machines, string(m))
		if m != vlt.MachineCMT && m != vlt.MachineVLTScalar {
			vec.Machines = append(vec.Machines, string(m))
		}
	}
	return [2]api.SweepRequest{vec, sca}
}

// gridCells lists the valid grid's 78 cells in sweep order.
func gridCells() []api.RunRequest {
	sw := gridSweeps()
	return append(sw[0].Cells(), sw[1].Cells()...)
}

// digest is the hex sha256 of b.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runDigestKey and experimentDigestKey name entries of digests.txt.
func runDigestKey(c api.RunRequest) string   { return "run " + c.Workload + "/" + c.Machine }
func experimentDigestKey(name string) string { return "experiment " + name }

// goldenDigests parses digests.txt: one "<kind> <name> <sha256>" line
// per /v1/run body and /v1/experiment body.
func goldenDigests() map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(digestsFile, "\n") {
		if f := strings.Fields(line); len(f) == 3 {
			out[f[0]+" "+f[1]] = f[2]
		}
	}
	return out
}

// checkDigest compares a body against its golden digest.
func checkDigest(golden map[string]string, key string, body []byte) error {
	want, ok := golden[key]
	if !ok {
		return fmt.Errorf("%s: no golden digest", key)
	}
	if got := digest(body); got != want {
		return fmt.Errorf("%s: body digest %s, golden %s", key, got[:12], want[:12])
	}
	return nil
}

// renderAll regenerates exactly the text `vltexp -all` prints on eng:
// a parallel engine warms its memo with CollectAll and renders from it,
// the serial engine simulates while rendering. It copies vltexp's print
// sequence; TestGoldens and TestExpallGoldenIsVltexp hold the copy and
// the golden to vltexp's own output.
func renderAll(eng *vlt.Engine) (string, error) {
	var b strings.Builder
	if !eng.Serial() {
		if _, err := eng.CollectAll(1); err != nil {
			return "", err
		}
	}
	fmt.Fprintln(&b, vlt.Table1String())
	fmt.Fprintln(&b, vlt.Table2String())
	fmt.Fprintln(&b, vlt.Table3String())
	t4, err := eng.Table4String(1)
	if err != nil {
		return "", err
	}
	fmt.Fprintln(&b, t4)
	figures := []func(int) (fmt.Stringer, error){
		func(s int) (fmt.Stringer, error) { return eng.Figure1(s) },
		func(s int) (fmt.Stringer, error) { return eng.Figure3(s) },
		func(s int) (fmt.Stringer, error) { return eng.Figure4(s) },
		func(s int) (fmt.Stringer, error) { return eng.Figure5(s) },
		func(s int) (fmt.Stringer, error) { return eng.Figure6(s) },
		func(s int) (fmt.Stringer, error) { return eng.Extension16Lanes(s) },
		func(s int) (fmt.Stringer, error) { return eng.ExtensionPhaseSwitching(s) },
	}
	for _, fig := range figures {
		d, err := fig(1)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&b, d)
	}
	return b.String(), nil
}

// checkText compares a regenerated text against its golden, naming the
// first differing line.
func checkText(got, want string) error {
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Errorf("line %d differs from the golden: got %q, want %q", i+1, gl, wl)
		}
	}
	return fmt.Errorf("output differs from the golden")
}
