package main

import (
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"workloads:", "mxm", "machines:", "V2-CMP"} {
		if !strings.Contains(got, want) {
			t.Errorf("-list output missing %q:\n%s", want, got)
		}
	}
}

func TestRunWorkloadSmoke(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-workload", "mxm", "-machine", "base"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{
		"workload:        mxm on base",
		"cycles:",
		"datapaths:",
		"verification:    PASS",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunVerboseMetrics(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-workload", "mxm", "-machine", "base", "-v", "-no-verify"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"metrics", "su0.fetch.instrs", "vcl.util.busy", "l2.reads", "vm.ops.avg_vl"} {
		if !strings.Contains(got, want) {
			t.Errorf("-v output missing %q:\n%s", want, got)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("missing -workload: exit %d, want 2", code)
	}
	errOut.Reset()
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 1 {
		t.Errorf("unknown workload: exit %d, want 1", code)
	}
	if errOut.Len() == 0 {
		t.Error("unknown workload produced no diagnostic")
	}
}

func TestRunGuardStallDiagnostic(t *testing.T) {
	var out, errOut strings.Builder
	// A 2-cycle stall limit trips during the cold-start cache fill, so
	// the run must abort with a clean diagnostic, not a stack trace.
	code := run([]string{"-workload", "mxm", "-machine", "base", "-stall-limit", "2"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errOut.String())
	}
	got := errOut.String()
	for _, want := range []string{"vltsim: simulation aborted", "guard:", "machine state at failure", "thread 0"} {
		if !strings.Contains(got, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "goroutine") {
		t.Errorf("diagnostic leaks a raw stack trace:\n%s", got)
	}
}

// TestRunRejectsNonPositiveScale: a scale below 1 is a usage error, not a
// silent scale-1 run labelled with the requested scale.
func TestRunRejectsNonPositiveScale(t *testing.T) {
	for _, scale := range []string{"0", "-4"} {
		var out, errOut strings.Builder
		if code := run([]string{"-workload", "mxm", "-scale", scale}, &out, &errOut); code != 2 {
			t.Errorf("-scale %s: exit %d, want 2", scale, code)
		}
		if out.Len() != 0 || !strings.Contains(errOut.String(), "-scale") {
			t.Errorf("-scale %s: stdout %q, stderr %q; want only a -scale diagnostic", scale, out.String(), errOut.String())
		}
	}
}

func TestRunBadAuditFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-workload", "mxm", "-audit", "sometimes"}, &out, &errOut); code != 2 {
		t.Errorf("bad -audit value: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "audit") {
		t.Errorf("stderr missing audit diagnostic: %s", errOut.String())
	}
}

func TestRunAuditOnMatchesOff(t *testing.T) {
	cycles := func(audit string) string {
		t.Helper()
		var out, errOut strings.Builder
		if code := run([]string{"-workload", "mxm", "-machine", "base", "-audit", audit}, &out, &errOut); code != 0 {
			t.Fatalf("-audit %s: exit %d, stderr: %s", audit, code, errOut.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "cycles:") {
				return line
			}
		}
		t.Fatalf("-audit %s: no cycles line:\n%s", audit, out.String())
		return ""
	}
	if on, off := cycles("on"), cycles("off"); on != off {
		t.Errorf("auditor perturbed timing: %q (on) != %q (off)", on, off)
	}
}
