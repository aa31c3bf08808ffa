package main

import (
	"encoding/json"
	"fmt"
	"io"

	"vlt/internal/pipe"
	"vlt/internal/stats"
)

// maxTraceName caps instruction names in trace events; anything longer
// (a disassembly bug, a pathological operand list) is truncated rather
// than ballooning the trace file.
const maxTraceName = 120

// chromeTracer converts retirement events into Chrome trace-event JSON
// (the chrome://tracing / Perfetto format): one duration event per
// instruction spanning fetch to completion, one row per software thread.
// At Close it appends a "metrics" metadata event carrying the machine's
// final counter snapshot, so a trace file is self-describing. -chrometrace
// feeds it from the machine's retirement hook and closes it after the run.
type chromeTracer struct {
	w     io.Writer
	first bool
	err   error // the first write error; later events are dropped
}

// newChromeTracer starts a trace-event array on w.
func newChromeTracer(w io.Writer) *chromeTracer {
	t := &chromeTracer{w: w, first: true}
	_, t.err = io.WriteString(w, "[\n")
	return t
}

// traceName returns the instruction's display name, truncated to
// maxTraceName runes and JSON-quoted (json.Marshal escapes control and
// non-UTF-8 bytes that Go's %q would render as JSON-invalid \x escapes).
func traceName(s string) string {
	if len(s) > maxTraceName {
		runes := []rune(s)
		if len(runes) > maxTraceName {
			s = string(runes[:maxTraceName]) + "..."
		}
	}
	q, err := json.Marshal(s)
	if err != nil {
		return `"?"`
	}
	return string(q)
}

func (t *chromeTracer) sep() string {
	if t.first {
		t.first = false
		return ""
	}
	return ",\n"
}

func (t *chromeTracer) emit(now uint64, tid int, u *pipe.Uop) {
	if t.err != nil {
		return
	}
	done := u.DoneCycle
	if done == pipe.NeverDone || done > now {
		done = now
	}
	dur := done - u.FetchCycle
	if dur == 0 {
		dur = 1
	}
	_, t.err = fmt.Fprintf(t.w,
		`%s  {"name": %s, "cat": "uop", "ph": "X", "ts": %d, "dur": %d, "pid": 0, "tid": %d, "args": {"pc": %d, "issue": %d}}`,
		t.sep(), traceName(u.Dyn.Inst.String()), u.FetchCycle, dur, tid, u.Dyn.PC, u.IssueCycle)
}

// Close appends reg's snapshot as a metadata event, then terminates the
// JSON array and reports the first write error.
func (t *chromeTracer) Close(reg *stats.Registry) error {
	if t.err == nil {
		args, err := json.Marshal(reg.Snapshot().Map()) // sorted keys
		if err == nil {
			_, t.err = fmt.Fprintf(t.w,
				`%s  {"name": "metrics", "cat": "meta", "ph": "M", "pid": 0, "tid": 0, "args": %s}`,
				t.sep(), args)
		}
	}
	if t.err != nil {
		return t.err
	}
	_, err := io.WriteString(t.w, "\n]\n")
	return err
}
