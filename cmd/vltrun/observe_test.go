package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vlt/internal/asm"
	"vlt/internal/core"
)

// TestObserversMatchGoldens pins vltrun's observer outputs byte for
// byte: stdout (with the -sample series), stderr (the -trace and
// -pipeview lines) and the -chrometrace file of
//
//	VLT_AUDIT=off vltrun -machine V2-CMP -threads 2 -sample 50 -trace -pipeview \
//	    -chrometrace prog.trace.golden prog.vasm >prog.stdout.golden 2>prog.stderr.golden
//
// for each examples/programs/*.vasm. Regenerate them with that command
// only for an intended output change.
func TestObserversMatchGoldens(t *testing.T) {
	t.Setenv("VLT_AUDIT", "off") // the auditor's counters are in the trace's metrics event
	progs, err := filepath.Glob("../../examples/programs/*.vasm")
	if err != nil || len(progs) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	for _, prog := range progs {
		name := strings.TrimSuffix(filepath.Base(prog), ".vasm")
		t.Run(name, func(t *testing.T) {
			trace := filepath.Join(t.TempDir(), "trace.json")
			var out, errOut strings.Builder
			code := run([]string{"-machine", "V2-CMP", "-threads", "2", "-sample", "50",
				"-trace", "-pipeview", "-chrometrace", trace, prog}, &out, &errOut)
			if code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errOut.String())
			}
			traceJSON, err := os.ReadFile(trace)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct{ suffix, got string }{
				{"stdout", out.String()},
				{"stderr", errOut.String()},
				{"trace", string(traceJSON)},
			} {
				want, err := os.ReadFile(filepath.Join("testdata", name+"."+c.suffix+".golden"))
				if err != nil {
					t.Fatal(err)
				}
				if c.got != string(want) {
					t.Errorf("%s differs from testdata/%s.%s.golden:\n%s", c.suffix, name, c.suffix, firstDiff(c.got, string(want)))
				}
			}
		})
	}
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return "line " + strconv.Itoa(i+1) + ":\n got  " + g[i] + "\n want " + w[i]
		}
	}
	return "got " + strconv.Itoa(len(g)) + " lines, want " + strconv.Itoa(len(w))
}

// runExample runs the example program with args and returns stderr and
// the program's instruction count.
func runExample(t *testing.T, args ...string) (string, int) {
	t.Helper()
	path := writeProg(t)
	prog, err := asm.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut strings.Builder
	if code := run(append(args, path), &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	return errOut.String(), len(prog.Code)
}

func TestTraceEmitsRetirementLines(t *testing.T) {
	out, instrs := runExample(t, "-trace")
	for _, want := range []string{"setvl", "vld", "vredsum", "halt", "t0"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != instrs {
		t.Errorf("trace has %d lines, want %d (one per retired instruction)", lines, instrs)
	}
}

func TestPipeViewEmitsTimeline(t *testing.T) {
	out, instrs := runExample(t, "-pipeview")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != instrs {
		t.Fatalf("pipeview has %d lines, want %d", len(lines), instrs)
	}
	for _, l := range lines {
		if !strings.Contains(l, "F") || !strings.Contains(l, "R") || !strings.HasPrefix(l, "t0") {
			t.Errorf("malformed pipeview line %q", l)
		}
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	_, instrs := runExample(t, "-chrometrace", trace)
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, data)
	}
	// One duration event per instruction plus the Close-time metrics
	// metadata event.
	if len(events) != instrs+1 {
		t.Errorf("%d events, want %d", len(events), instrs+1)
	}
	for _, e := range events[:len(events)-1] {
		if e["ph"] != "X" || e["name"] == "" {
			t.Errorf("malformed event: %v", e)
		}
	}
	meta := events[len(events)-1]
	if meta["ph"] != "M" || meta["name"] != "metrics" {
		t.Fatalf("last event is not the metrics snapshot: %v", meta)
	}
	args, ok := meta["args"].(map[string]any)
	if !ok || len(args) < 40 {
		t.Fatalf("metrics event carries %d counters, want >= 40", len(args))
	}
	if args["machine.cycles"].(float64) <= 0 || args["vcl.issued"].(float64) <= 0 {
		t.Errorf("metrics event missing machine.cycles/vcl.issued: %v", args)
	}
}

// traceName must keep trace events valid JSON for hostile instruction
// names (control bytes, invalid UTF-8) and cap runaway lengths.
func TestChromeTraceNameEscaping(t *testing.T) {
	for _, hostile := range []string{
		"add\x00r1, r2",
		"bad\x80\xfebytes",
		"quote\"and\\slash",
		strings.Repeat("x", 4096),
	} {
		q := traceName(hostile)
		var back string
		if err := json.Unmarshal([]byte(q), &back); err != nil {
			t.Fatalf("traceName(%q) emitted invalid JSON %q: %v", hostile, q, err)
		}
		if len(q) > maxTraceName*8 {
			t.Fatalf("traceName did not cap %d-byte name (got %d bytes)", len(hostile), len(q))
		}
	}
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

var errFull = errors.New("device full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		k := w.n
		w.n = 0
		return k, errFull
	}
	w.n -= len(p)
	return len(p), nil
}

// TestChromeTracerReportsWriteError: a write that fails anywhere in the
// trace (the opening bracket, an event, the metrics event or the
// closing bracket) is the error Close reports.
func TestChromeTracerReportsWriteError(t *testing.T) {
	m, err := core.NewMachine(mustConfig(t, "base", 1), mustLoad(t, writeProg(t)))
	if err != nil {
		t.Fatal(err)
	}
	var full strings.Builder
	ref := newChromeTracer(&full)
	m.SetRetireHook(retireHook(nil, false, false, ref))
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(m.Registry()); err != nil {
		t.Fatal(err)
	}
	size := full.Len()
	for _, n := range []int{0, 10, size / 2, size - 2} {
		m, err := core.NewMachine(mustConfig(t, "base", 1), mustLoad(t, writeProg(t)))
		if err != nil {
			t.Fatal(err)
		}
		tr := newChromeTracer(&failingWriter{n: n})
		m.SetRetireHook(retireHook(nil, false, false, tr))
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(m.Registry()); !errors.Is(err, errFull) {
			t.Errorf("writer failing after %d of %d bytes: Close = %v, want %v", n, size, err, errFull)
		}
	}
}

// TestRunChromeTraceUnwritable: vltrun exits 1 when the trace file
// cannot be written, naming the failure.
func TestRunChromeTraceUnwritable(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	var out, errOut strings.Builder
	if code := run([]string{"-chrometrace", "/dev/full", writeProg(t)}, &out, &errOut); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "vltrun: trace: write /dev/full") {
		t.Errorf("stderr missing the write failure: %s", errOut.String())
	}
}

// TestSamplerRecordsOccupancySeries: -sample reads the occupancy census
// every N cycles, one row per sampled cycle before the run ends, and
// the cumulative rows only grow; a machine without a vector unit drops
// the vcl.* columns.
func TestSamplerRecordsOccupancySeries(t *testing.T) {
	m, err := core.NewMachine(mustConfig(t, "base", 1), mustLoad(t, "../../examples/programs/dotproduct.vasm"))
	if err != nil {
		t.Fatal(err)
	}
	csv, err := sampleSeries(m, 50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	header := strings.Split(rows[0], ",")
	if header[0] != "cycle" || len(header) != len(sampleMetrics)+1 {
		t.Fatalf("header %v, want cycle and every sampled metric", header)
	}
	busyCol := -1
	for i, n := range header {
		if n == "vcl.util.busy" {
			busyCol = i
		}
	}
	if want := int((res.Cycles-1)/50 + 1); len(rows)-1 != want {
		t.Fatalf("recorded %d rows over %d cycles, want %d", len(rows)-1, res.Cycles, want)
	}
	var prevBusy float64
	for i, row := range rows[1:] {
		cols := strings.Split(row, ",")
		if cols[0] != strconv.Itoa(50*i) {
			t.Fatalf("row %d at cycle %s, want %d", i, cols[0], 50*i)
		}
		busy, err := strconv.ParseFloat(cols[busyCol], 64)
		if err != nil || busy < prevBusy {
			t.Fatalf("row %d: busy %q after %v", i, cols[busyCol], prevBusy)
		}
		prevBusy = busy
	}
	if busy := res.Metrics().Uint("vcl.util.busy"); prevBusy > float64(busy) {
		t.Fatalf("sampled busy %v exceeds final census %d", prevBusy, busy)
	}

	// A machine without a vector unit samples the scalar subset.
	path := filepath.Join(t.TempDir(), "scalar.vasm")
	if err := os.WriteFile(path, []byte("movi r1, 6\nmovi r2, 7\nadd r3, r1, r2\nhalt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m2, err := core.NewMachine(mustConfig(t, "CMT", 1), mustLoad(t, path))
	if err != nil {
		t.Fatal(err)
	}
	csv, err = sampleSeries(m2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if header := csv[:strings.IndexByte(csv, '\n')]; header != "cycle,machine.retired,l2.bank_stalls" {
		t.Fatalf("scalar-only machine samples %q", header)
	}
}

func mustConfig(t *testing.T, machine string, threads int) core.Config {
	t.Helper()
	cfg, err := core.ByName(machine, 8, threads)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func mustLoad(t *testing.T, path string) *asm.Program {
	t.Helper()
	prog, err := asm.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
