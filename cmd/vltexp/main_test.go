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
	cases := [][]string{
		{"-fig", "2"},             // the paper has no figure 2
		{"-tab", "9"},             // tables are 1-4
		{"-jobs", "-3"},           // negative worker count
		{"-audit", "sometimes"},   // not auto/on/off
		{"-tab", "1", "leftover"}, // positional args are not accepted
		{"-scale", "0"},           // problem size multipliers start at 1
		{"-tab", "1", "-scale", "-4"},
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2\nstderr: %s", args, code, errOut.String())
		}
		if errOut.Len() == 0 {
			t.Errorf("%v: no usage diagnostic on stderr", args)
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
