package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vlt"
	"vlt/internal/asm"
	"vlt/internal/core"
)

const exampleProg = `
.data tbl 1 2 3 4 5 6 7 8
.alloc out 1
    movi r1, 8
    setvl r2, r1
    movi r3, &tbl
    vld v1, (r3)
    vredsum r4, v1
    movi r5, &out
    st r4, 0(r5)
    halt
`

func writeProg(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.vasm")
	if err := os.WriteFile(path, []byte(exampleProg), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSmoke(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-dump", "out", writeProg(t)}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"machine: base", "cycles:", "vector:", "out @"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if !strings.Contains(got, ": 36") { // sum 1..8
		t.Errorf("dump missing reduction result 36:\n%s", got)
	}
}

func TestRunJSONExport(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-json", writeProg(t)}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	var res struct {
		Machine string             `json:"machine"`
		Cycles  uint64             `json:"cycles"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if !strings.HasPrefix(res.Machine, "base") || res.Cycles == 0 {
		t.Errorf("bad header fields: %+v", res)
	}
	if len(res.Metrics) < 40 {
		t.Errorf("JSON export has %d metrics, want >= 40", len(res.Metrics))
	}
	for _, name := range []string{"machine.cycles", "vcl.issued", "su0.fetch.instrs", "l2.reads"} {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("JSON metrics missing %q", name)
		}
	}
	if res.Metrics["machine.cycles"] != float64(res.Cycles) {
		t.Errorf("machine.cycles %v != cycles %d", res.Metrics["machine.cycles"], res.Cycles)
	}
}

func TestRunStatsListing(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-stats", writeProg(t)}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"metrics", "machine.ipc", "vcl.util.busy_pct", "vm.ops.avg_vl"} {
		if !strings.Contains(got, want) {
			t.Errorf("-stats output missing %q:\n%s", want, got)
		}
	}
}

func TestRunSampler(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-sample", "10", writeProg(t)}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "samples (every 10 cycles):") {
		t.Errorf("sampler header missing:\n%s", got)
	}
	if !strings.Contains(got, "cycle,") || !strings.Contains(got, "vcl.util.busy") {
		t.Errorf("sampler CSV missing header columns:\n%s", got)
	}
}

func TestRunBadArgs(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	errOut.Reset()
	if code := run([]string{"-machine", "nope", writeProg(t)}, &out, &errOut); code != 1 {
		t.Errorf("bad machine: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "unknown machine") {
		t.Errorf("stderr missing diagnostic: %s", errOut.String())
	}
}

// TestRunEveryMachine runs a scalar-only program on every machine the
// library knows, by the same names, and refuses any other name.
func TestRunEveryMachine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scalar.vasm")
	src := ".alloc out 1\nmovi r1, 6\nmovi r2, 7\nadd r3, r1, r2\nmovi r4, &out\nst r3, 0(r4)\nhalt\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, m := range vlt.Machines() {
		var out, errOut strings.Builder
		if code := run([]string{"-machine", string(m), "-dump", "out", path}, &out, &errOut); code != 0 {
			t.Errorf("-machine %s: exit %d, stderr: %s", m, code, errOut.String())
			continue
		}
		if !regexp.MustCompile(`out @0x[0-9a-f]+: 13\b`).MatchString(out.String()) {
			t.Errorf("-machine %s: dump missing 6+7=13:\n%s", m, out.String())
		}
	}
	var out, errOut strings.Builder
	if code := run([]string{"-machine", "scalar", path}, &out, &errOut); code != 1 {
		t.Errorf("-machine scalar: exit %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), `unknown machine "scalar"`) {
		t.Errorf("-machine scalar: stderr missing diagnostic: %s", errOut.String())
	}
}

// TestRunGuardStallDiagnostic: a run the stall watchdog aborts prints a
// clean diagnostic through vltrun's failure path. The watchdog's limit is
// a constant, so the test shrinks it to 2 cycles in the core config,
// where it trips during the cold start's first I-cache fill.
func TestRunGuardStallDiagnostic(t *testing.T) {
	prog, err := asm.Load(writeProg(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.ByName("base", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StallLimit = 2
	m, err := core.NewMachine(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if err == nil {
		t.Fatal("run with a 2-cycle stall limit succeeded")
	}
	var errOut strings.Builder
	if code := abort(&errOut, err); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errOut.String())
	}
	got := errOut.String()
	for _, want := range []string{"vltrun: simulation aborted", "guard:", "machine state at failure"} {
		if !strings.Contains(got, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "goroutine") {
		t.Errorf("diagnostic leaks a raw stack trace:\n%s", got)
	}
}

func TestRunGuestFaultDiagnostic(t *testing.T) {
	// A misaligned scalar load faults at runtime; the diagnostic must
	// name the faulting PC and cycle instead of panicking.
	path := filepath.Join(t.TempDir(), "fault.vasm")
	src := "movi r1, 3\nld r2, 0(r1)\nhalt\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errOut.String())
	}
	got := errOut.String()
	for _, want := range []string{"guest program fault", "pc 1", "cycle"} {
		if !strings.Contains(got, want) {
			t.Errorf("fault diagnostic missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "goroutine") {
		t.Errorf("fault diagnostic leaks a raw stack trace:\n%s", got)
	}
}

// TestRunBadAuditFlag: VLT_AUDIT is the only audit switch and the stall
// limit a constant, so neither has a flag.
func TestRunBadAuditFlag(t *testing.T) {
	for _, flag := range []string{"-audit", "-stall-limit"} {
		var out, errOut strings.Builder
		if code := run([]string{flag, "2", writeProg(t)}, &out, &errOut); code != 2 {
			t.Errorf("%s: exit %d, want 2", flag, code)
		}
		if !strings.Contains(errOut.String(), "flag provided but not defined: "+flag) {
			t.Errorf("%s: stderr missing diagnostic: %s", flag, errOut.String())
		}
	}
}
