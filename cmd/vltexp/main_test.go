package main

import (
	"regexp"
	"strings"
	"testing"

	"vlt"
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
		{args: []string{"-audit", "sometimes"}},   // not auto/on/off
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

func TestRunGuardStallDiagnostic(t *testing.T) {
	var out, errOut strings.Builder
	// A 2-cycle stall limit trips in every cell's cold start, so the
	// first simulated cell aborts the whole run with a clean diagnostic.
	code := run([]string{"-tab", "4", "-stall-limit", "2", "-jobs", "1"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errOut.String())
	}
	got := errOut.String()
	for _, want := range []string{"vltexp: simulation aborted", "guard:", "machine state at failure"} {
		if !strings.Contains(got, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "goroutine") {
		t.Errorf("diagnostic leaks a raw stack trace:\n%s", got)
	}
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

func TestRunMetricsBadAuditFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-metrics", "mxm", "-audit", "sometimes"}, &out, &errOut); code != 2 {
		t.Errorf("bad -audit value: exit %d, want 2", code)
	}
	if out.Len() != 0 || !strings.Contains(errOut.String(), "audit") {
		t.Errorf("stdout %q, stderr %q; want only an audit diagnostic", out.String(), errOut.String())
	}
}

// TestRunMetricsGuardStallDiagnostic: a single cell tripping the stall
// watchdog aborts with the guard's diagnostic and machine dump.
func TestRunMetricsGuardStallDiagnostic(t *testing.T) {
	var out, errOut strings.Builder
	// A 2-cycle stall limit trips during the cold-start cache fill.
	code := run([]string{"-metrics", "mxm", "-machine", "base", "-stall-limit", "2"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errOut.String())
	}
	got := errOut.String()
	for _, want := range []string{"vltexp: simulation aborted", "guard:", "machine state at failure", "thread 0"} {
		if !strings.Contains(got, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "goroutine") {
		t.Errorf("diagnostic leaks a raw stack trace:\n%s", got)
	}
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
	cycles := func(audit string) string {
		t.Helper()
		var out, errOut strings.Builder
		if code := run([]string{"-metrics", "mxm", "-audit", audit}, &out, &errOut); code != 0 {
			t.Fatalf("-audit %s: exit %d, stderr: %s", audit, code, errOut.String())
		}
		line := regexp.MustCompile(`(?m)^machine\.cycles \d+$`).FindString(out.String())
		if line == "" {
			t.Fatalf("-audit %s: no machine.cycles line:\n%s", audit, out.String())
		}
		return line
	}
	if on, off := cycles("on"), cycles("off"); on != off {
		t.Errorf("auditor perturbed timing: %q (on) != %q (off)", on, off)
	}
}

func TestRunMetricsIncludesGuardScope(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-metrics", "mxm", "-machine", "base", "-audit", "on"}, &out, &errOut)
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
