package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// TestRunJSONGolden pins -json byte for byte: the result types'
// field names, order, omitempty and null-vs-empty slices are the wire
// format. Regenerate with `go test ./cmd/vltsearch -run
// TestRunJSONGolden -update` only for an intended output change.
func TestRunJSONGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"mpenc_exhaustive.golden", []string{"-workload", "mpenc", "-budget", "8", "-json"}},
	} {
		var out, errOut strings.Builder
		if code := run(c.args, &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", c.args, code, errOut.String())
		}
		path := filepath.Join("testdata", c.golden)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to generate)", err)
		}
		if out.String() != string(want) {
			t.Errorf("%v drifted from %s:\ngot:\n%s", c.args, path, out.String())
		}
	}
}

func TestRunText(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-workload", "mpenc", "-machine", "V4-CMT", "-budget", "8"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"mpenc on V4-CMT", "runs simulated", "best plan", "verified=true"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunJSON(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-workload", "mpenc", "-budget", "4", "-json"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	var res struct {
		Workload  string `json:"workload"`
		Simulated int    `json:"simulated"`
		Verified  bool   `json:"verified"`
		Best      struct {
			Cycles uint64 `json:"cycles"`
		} `json:"best"`
	}
	if err := json.Unmarshal([]byte(out.String()), &res); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if res.Workload != "mpenc" || res.Simulated < 1 || res.Simulated > 4 {
		t.Errorf("unexpected result: %+v", res)
	}
	if !res.Verified || res.Best.Cycles == 0 {
		t.Errorf("best plan not verified: %+v", res)
	}
}

func TestRunUsageErrors(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "usage: vltsearch") {
		t.Errorf("missing usage text:\n%s", errOut.String())
	}
	errOut.Reset()
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 1 {
		t.Errorf("unknown workload: exit %d, want 1", code)
	}

	// Bad input is refused before any simulation, with the offending
	// word or flag named, instead of running a default search.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-workload", "mpenc", "-budget", "2", "extra"}, `"extra"`},
		{[]string{"-workload", "mpenc", "-scale", "-3"}, "-scale"},
		{[]string{"-workload", "mpenc", "-budget", "-5"}, "-budget"},
		{[]string{"-workload", "mpenc", "-depth", "-1"}, "-depth"},
		// The search has one expansion rule and no knobs for another.
		{[]string{"-workload", "mpenc", "-policy", "nope"}, "-policy"},
		{[]string{"-workload", "mpenc", "-width", "-2"}, "-width"},
		{[]string{"-workload", "mpenc", "-seed", "1"}, "-seed"},
		{[]string{"-workload", "mpenc", "-threads", "-4"}, "-threads"},
		{[]string{"-workload", "mpenc", "-jobs", "-1"}, "-jobs"},
	} {
		out.Reset()
		errOut.Reset()
		if code := run(c.args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", c.args, code)
		}
		if out.Len() != 0 || !strings.Contains(errOut.String(), c.want) {
			t.Errorf("%v: stdout %q, stderr %q; want only a diagnostic naming %s", c.args, out.String(), errOut.String(), c.want)
		}
	}
}
