package main

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"vlt/internal/core"
	"vlt/internal/pipe"
)

// sampleMetrics are -sample's columns: the vector-datapath occupancy
// census over time (the raw material for a Figure-4-style animation)
// plus overall progress. Names a machine does not register (vcl.* on a
// machine without a vector unit) are dropped.
var sampleMetrics = []string{
	"machine.retired",
	"vcl.util.busy", "vcl.util.part_idle", "vcl.util.stalled",
	"vcl.util.all_idle", "vcl.util.busy_pct",
	"vcl.issued", "vcl.elem_ops",
	"l2.bank_stalls",
}

// sampleSeries runs m in steps, stopping after cycles 0, every, 2*every, ...
// to read sampleMetrics from its live registry, and returns the series
// as CSV: a header row ("cycle,metric,...") and one row of cumulative
// values per sampled cycle. It stops at the last sampled cycle before
// the run ends; Run finishes the machine.
func sampleSeries(m *core.Machine, every uint64) (string, error) {
	reg := m.Registry()
	var sb strings.Builder
	sb.WriteString("cycle")
	var names []string
	for _, n := range sampleMetrics {
		if reg.Has(n) {
			names = append(names, n)
			sb.WriteByte(',')
			sb.WriteString(n)
		}
	}
	sb.WriteByte('\n')
	for c := uint64(0); ; c += every {
		if err := m.RunUntil(c + 1); err != nil {
			return "", err
		}
		if m.Now() <= c {
			break // the run ended before cycle c
		}
		sb.WriteString(strconv.FormatUint(c, 10))
		for _, n := range names {
			v, _ := reg.Float(n)
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		sb.WriteByte('\n')
		if every >= math.MaxUint64-c {
			break // the next sampled cycle is past any run
		}
	}
	return sb.String(), nil
}

// retireHook returns the machine's retirement observer for the
// requested outputs: per retired instruction, a -trace line and then a
// -pipeview line on w, and a duration event on the Chrome tracer (when
// not nil).
func retireHook(w io.Writer, trace, pipeview bool, chrome *chromeTracer) func(uint64, int, *pipe.Uop) {
	return func(now uint64, tid int, u *pipe.Uop) {
		if trace {
			fmt.Fprintf(w, "%10d  t%d  @%-6d %s\n", now, tid, u.Dyn.PC, u.Dyn.Inst)
		}
		if pipeview {
			done := u.DoneCycle
			if done == pipe.NeverDone {
				done = now // released control uops (barriers) complete at retire
			}
			fmt.Fprintf(w, "t%d @%d %s | F%d D%d I%d C%d R%d\n",
				tid, u.Dyn.PC, u.Dyn.Inst.Op, u.FetchCycle, u.DispatchCycle,
				u.IssueCycle, done, now)
		}
		if chrome != nil {
			chrome.emit(now, tid, u)
		}
	}
}
