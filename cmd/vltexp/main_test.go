package main

import (
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"vlt"
	"vlt/internal/asm"
	"vlt/internal/core"
	"vlt/internal/guard"
	"vlt/internal/isa"
)

func TestRunStaticTable(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-tab", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Table 1") {
		t.Errorf("-tab 1 output missing header:\n%s", out.String())
	}
}

// TestRunSelectorsMapToCatalogue pins -tab N and -fig N to the catalogue's
// tableN and figureN: each prints exactly that entry's text.
func TestRunSelectorsMapToCatalogue(t *testing.T) {
	for n, want := range map[string]string{
		"1": vlt.Table1String(), "2": vlt.Table2String(), "3": vlt.Table3String(),
	} {
		var out, errOut strings.Builder
		if code := run([]string{"-tab", n}, &out, &errOut); code != 0 {
			t.Fatalf("-tab %s: exit %d, stderr: %s", n, code, errOut.String())
		}
		if out.String() != want+"\n" {
			t.Errorf("-tab %s printed:\n%s\nwant Table %s:\n%s", n, out.String(), n, want)
		}
	}

	var out, errOut strings.Builder
	if code := run([]string{"-fig", "6"}, &out, &errOut); code != 0 {
		t.Fatalf("-fig 6: exit %d, stderr: %s", code, errOut.String())
	}
	titles := regexp.MustCompile(`(?m)^(Figure \d+|Table \d+|Extension):`).FindAllString(out.String(), -1)
	if len(titles) != 1 || titles[0] != "Figure 6:" {
		t.Errorf("-fig 6 printed titles %q, want only Figure 6's:\n%s", titles, out.String())
	}
}

func TestRunUsageErrors(t *testing.T) {
	cases := []struct {
		args  []string
		names []string // flags the diagnostic must name
	}{
		{args: []string{"-fig", "2"}},             // the paper has no figure 2
		{args: []string{"-tab", "9"}},             // tables are 1-4
		{args: []string{"-jobs", "-3"}},           // negative worker count
		{args: []string{"-stall-limit", "2"}},     // the watchdog's limit is a constant
		{args: []string{"-tab", "1", "leftover"}}, // positional args are not accepted
		{args: []string{"-scale", "0"}},           // problem size multipliers start at 1
		{args: []string{"-tab", "1", "-scale", "-4"}},
		// -all, -json, -metrics and the selectors are exclusive modes,
		// and -machine belongs to -metrics.
		{[]string{"-json", "-fig", "3"}, []string{"-json", "-fig"}},
		{[]string{"-metrics", "mxm", "-fig", "3"}, []string{"-metrics", "-fig"}},
		{[]string{"-all", "-fig", "3"}, []string{"-all", "-fig"}},
		{[]string{"-all", "-json"}, []string{"-all", "-json"}},
		{[]string{"-json", "-metrics", "mxm"}, []string{"-json", "-metrics"}},
		{[]string{"-tab", "1", "-ext", "-json"}, []string{"-json", "-tab"}},
		{[]string{"-fig", "3", "-machine", "V4-CMT"}, []string{"-machine", "-fig"}},
		{[]string{"-json", "-machine", "base"}, []string{"-machine", "-json"}},
	}
	for _, c := range cases {
		var out, errOut strings.Builder
		if code := run(c.args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2\nstderr: %s", c.args, code, errOut.String())
		}
		if errOut.Len() == 0 || out.Len() != 0 {
			t.Errorf("%v: stdout %q, stderr %q; want only a usage diagnostic", c.args, out.String(), errOut.String())
		}
		for _, name := range c.names {
			if !strings.Contains(errOut.String(), name) {
				t.Errorf("%v: diagnostic does not name %s:\n%s", c.args, name, errOut.String())
			}
		}
	}
}

// TestRunRejectsArguments pins the diagnostic for a stray positional
// argument after a table selector: exit 2, the offending word, and the
// flag summary.
func TestRunRejectsArguments(t *testing.T) {
	for _, tab := range []string{"1", "2"} {
		var out, errOut strings.Builder
		if code := run([]string{"-tab", tab, "extra"}, &out, &errOut); code != 2 {
			t.Errorf("-tab %s extra: exit %d, want 2", tab, code)
		}
		if out.Len() != 0 {
			t.Errorf("-tab %s extra: printed a table despite the usage error:\n%s", tab, out.String())
		}
		for _, want := range []string{`unexpected argument "extra"`, "Usage of vltexp"} {
			if !strings.Contains(errOut.String(), want) {
				t.Errorf("-tab %s extra: stderr missing %q:\n%s", tab, want, errOut.String())
			}
		}
	}
}

// stallErr runs a tiny program on a base machine whose stall limit (2
// cycles) trips during the cold start's first I-cache fill, and returns
// the watchdog's *guard.StallError. The watchdog's limit is a constant in
// every command, so the core config is the one place to shrink it.
func stallErr(t *testing.T) error {
	t.Helper()
	b := asm.NewBuilder("stall")
	b.MovI(isa.R(1), 1)
	b.Halt()
	cfg := core.Base(8)
	cfg.StallLimit = 2
	m, err := core.NewMachine(cfg, b.MustAssemble())
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	var stall *guard.StallError
	if !errors.As(err, &stall) {
		t.Fatalf("want *guard.StallError, got %T: %v", err, err)
	}
	return err
}

// checkAbort renders err through vltexp's failure path and checks the
// exit code and the diagnostic's lines.
func checkAbort(t *testing.T, err error, want ...string) {
	t.Helper()
	var errOut strings.Builder
	if code := abort(&errOut, err); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errOut.String())
	}
	got := errOut.String()
	for _, w := range want {
		if !strings.Contains(got, w) {
			t.Errorf("diagnostic missing %q:\n%s", w, got)
		}
	}
	if strings.Contains(got, "goroutine") {
		t.Errorf("diagnostic leaks a raw stack trace:\n%s", got)
	}
}

// TestRunGuardStallDiagnostic: a table cell tripping the stall watchdog,
// wrapped with its label as the engine reports it, aborts the run with a
// clean diagnostic.
func TestRunGuardStallDiagnostic(t *testing.T) {
	err := fmt.Errorf("table4 (mxm, base): %w", stallErr(t))
	checkAbort(t, err, "vltexp: simulation aborted", "guard:", "machine state at failure")
}

// TestRunMetricsSingleCell: -metrics simulates one verified cell on the
// named machine and reports its cycle count.
func TestRunMetricsSingleCell(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-metrics", "mxm", "-machine", "base"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	if !regexp.MustCompile(`(?m)^machine\.cycles [1-9]\d*$`).MatchString(out.String()) {
		t.Errorf("-metrics output has no positive machine.cycles line:\n%s", out.String())
	}
}

// TestRunMetricsRegistry: -metrics prints the cell's whole registry, one
// "name value" line per metric, covering every layer of the machine.
func TestRunMetricsRegistry(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-metrics", "mxm", "-machine", "base"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, want := range []string{"su0.fetch.instrs ", "vcl.util.busy ", "l2.reads ", "vm.ops.avg_vl "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-metrics output missing %q", want)
		}
	}
}

// TestRunMetricsRejectsNonPositiveScale: a scale below 1 is a usage
// error, not a silent scale-1 run.
func TestRunMetricsRejectsNonPositiveScale(t *testing.T) {
	for _, scale := range []string{"0", "-4"} {
		var out, errOut strings.Builder
		if code := run([]string{"-metrics", "mxm", "-scale", scale}, &out, &errOut); code != 2 {
			t.Errorf("-scale %s: exit %d, want 2", scale, code)
		}
		if out.Len() != 0 || !strings.Contains(errOut.String(), "-scale") {
			t.Errorf("-scale %s: stdout %q, stderr %q; want only a -scale diagnostic", scale, out.String(), errOut.String())
		}
	}
}

// TestRunMetricsBadAuditFlag: VLT_AUDIT is the only audit switch, so
// -audit is an unknown flag.
func TestRunMetricsBadAuditFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-metrics", "mxm", "-audit", "on"}, &out, &errOut); code != 2 {
		t.Errorf("-audit on: exit %d, want 2", code)
	}
	if out.Len() != 0 || !strings.Contains(errOut.String(), "flag provided but not defined: -audit") {
		t.Errorf("stdout %q, stderr %q; want only an unknown-flag diagnostic", out.String(), errOut.String())
	}
}

// TestRunMetricsGuardStallDiagnostic: a single cell tripping the stall
// watchdog aborts with the guard's diagnostic and machine dump.
func TestRunMetricsGuardStallDiagnostic(t *testing.T) {
	checkAbort(t, stallErr(t), "vltexp: simulation aborted", "guard:", "machine state at failure", "thread 0")
}

// checkNamesChoices runs args, which name something unknown, and checks
// the run fails with a diagnostic listing every valid choice.
func checkNamesChoices(t *testing.T, args, choices []string) {
	t.Helper()
	var out, errOut strings.Builder
	if code := run(args, &out, &errOut); code != 1 {
		t.Errorf("%v: exit %d, want 1\nstderr: %s", args, code, errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("%v: printed output despite the error:\n%s", args, out.String())
	}
	for _, name := range choices {
		if !strings.Contains(errOut.String(), name) {
			t.Errorf("%v: stderr does not name %q:\n%s", args, name, errOut.String())
		}
	}
}

// TestRunMetricsUnknownWorkload: an unknown -metrics workload fails the
// run, and the diagnostic lists every workload.
func TestRunMetricsUnknownWorkload(t *testing.T) {
	checkNamesChoices(t, []string{"-metrics", "nope"}, vlt.Workloads())
}

// TestRunMetricsUnknownMachine: an unknown -machine fails the run, and
// the diagnostic lists every machine.
func TestRunMetricsUnknownMachine(t *testing.T) {
	var machines []string
	for _, m := range vlt.Machines() {
		machines = append(machines, string(m))
	}
	checkNamesChoices(t, []string{"-metrics", "mxm", "-machine", "warp9"}, machines)
}

// TestRunAuditOnMatchesOff: the invariant auditor observes a run without
// perturbing its timing.
func TestRunAuditOnMatchesOff(t *testing.T) {
	cycles := func(audit, enabled string) string {
		t.Helper()
		t.Setenv("VLT_AUDIT", audit)
		var out, errOut strings.Builder
		if code := run([]string{"-metrics", "mxm"}, &out, &errOut); code != 0 {
			t.Fatalf("VLT_AUDIT=%s: exit %d, stderr: %s", audit, code, errOut.String())
		}
		if !strings.Contains(out.String(), "\nguard.audit.enabled "+enabled+"\n") {
			t.Fatalf("VLT_AUDIT=%s: guard.audit.enabled is not %s:\n%s", audit, enabled, out.String())
		}
		line := regexp.MustCompile(`(?m)^machine\.cycles \d+$`).FindString(out.String())
		if line == "" {
			t.Fatalf("VLT_AUDIT=%s: no machine.cycles line:\n%s", audit, out.String())
		}
		return line
	}
	if on, off := cycles("on", "1"), cycles("off", "0"); on != off {
		t.Errorf("auditor perturbed timing: %q (on) != %q (off)", on, off)
	}
}

func TestRunMetricsIncludesGuardScope(t *testing.T) {
	t.Setenv("VLT_AUDIT", "on")
	var out, errOut strings.Builder
	code := run([]string{"-metrics", "mxm", "-machine", "base"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"guard.audit.enabled 1", "guard.audit.checks", "guard.stall.limit"} {
		if !strings.Contains(got, want) {
			t.Errorf("-metrics output missing %q", want)
		}
	}
}
