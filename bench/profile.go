package main

import (
	"fmt"
	"os/exec"
	"reflect"
	"runtime"
	"strconv"
	"strings"

	"vlt/internal/workloads"
)

// profShare defines one prof.* metric over a CPU profile: the summed
// cumulative share of entry points that never call one another, plus
// the summed self share of every function under the given package
// prefixes (for layers without a single entry point).
type profShare struct {
	metric string
	cum    []string // exact function names
	flat   []string // function-name prefixes
}

// profShares covers the component entry points the harness cannot wrap
// in spans without touching the program. Program build and verification
// are the Build and Verify functions of every registered workload, found
// by name, plus the static verifier the serving layer runs before
// admitting a cell. Go's collector is its background mark workers,
// allocation (which also pays mark assists) and write barriers.
var profShares = []profShare{
	{metric: "prof.run_until_pct", cum: []string{"vlt/internal/core.(*Machine).RunUntil"}},
	{metric: "prof.scheduler_pct", cum: []string{
		"vlt/internal/core.(*Machine).nextEventCycle", "vlt/internal/core.(*Machine).skipTo"}},
	{metric: "prof.machine_new_pct", cum: []string{"vlt/internal/core.NewMachine"}},
	{metric: "prof.scalar_tick_pct", cum: []string{"vlt/internal/scalar.(*Unit).Tick"}},
	{metric: "prof.vcl_tick_pct", cum: []string{"vlt/internal/vcl.(*VCL).Tick"}},
	{metric: "prof.lane_tick_pct", cum: []string{"vlt/internal/lane.(*Core).Tick"}},
	{metric: "prof.mem_pct", flat: []string{"vlt/internal/mem."}},
	{metric: "prof.vm_step_pct", cum: []string{"vlt/internal/vm.(*VM).StepReusing"}},
	{metric: "prof.pipe_pct", flat: []string{"vlt/internal/pipe."}},
	{metric: "prof.gc_pct", cum: []string{"runtime.gcBgMarkWorker", "runtime.mallocgc",
		"gcWriteBarrier", "runtime.bulkBarrierPreWrite", "runtime.bulkBarrierPreWriteSrcOnly"},
		flat: []string{"runtime.gcWriteBarrier"}}, // the gcWriteBarrierN stubs jump to gcWriteBarrier
	{metric: "prof.build_pct", cum: append(workloadFuncs(func(w *workloads.Workload) any { return w.Build }),
		"vlt/internal/asm.(*Program).Vet")},
	{metric: "prof.verify_pct", cum: workloadFuncs(func(w *workloads.Workload) any { return w.Verify })},
	{metric: "prof.snapshot_pct", cum: []string{"vlt/internal/stats.(*Registry).Snapshot"}},
	{metric: "prof.fork_pct", cum: []string{"vlt/internal/core.(*Machine).Fork"}},
	{metric: "prof.serve_pct", flat: []string{"vlt/internal/serve.", "vlt/internal/store.", "vlt/internal/api."}},
	{metric: "prof.nethttp_pct", flat: []string{"net/http.", "net/textproto.", "bufio."}},
	{metric: "prof.syscall_pct", flat: []string{"syscall.", "internal/runtime/syscall.", "runtime/internal/syscall."}},
}

// workloadFuncs returns the symbol name, as profiles print it, of one
// function field of every registered workload.
func workloadFuncs(field func(*workloads.Workload) any) []string {
	var names []string
	for _, w := range workloads.All() {
		names = append(names, runtime.FuncForPC(reflect.ValueOf(field(w)).Pointer()).Name())
	}
	return names
}

// profRow is one function row of `go tool pprof -top`.
type profRow struct {
	name            string
	flatPct, cumPct float64
}

// profileShares runs `go tool pprof -top -cum` over a CPU profile and
// reduces it to the prof.* shares.
func profileShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-cum", "-nodefraction=0", "-edgefraction=0", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return sharesOf(parseTop(string(out))), nil
}

// parseTop parses the function rows of `go tool pprof -top` output:
//
//	flat  flat%   sum%        cum   cum%  name
func parseTop(text string) []profRow {
	var rows []profRow
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		flat, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		name := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		rows = append(rows, profRow{name: name, flatPct: flat, cumPct: cum})
	}
	return rows
}

// sharesOf reduces profile rows to every prof.* metric.
func sharesOf(rows []profRow) map[string]float64 {
	out := map[string]float64{}
	for _, s := range profShares {
		v := 0.0
		for _, r := range rows {
			for _, name := range s.cum {
				if r.name == name {
					v += r.cumPct
				}
			}
			for _, prefix := range s.flat {
				if strings.HasPrefix(r.name, prefix) {
					v += r.flatPct
				}
			}
		}
		out[s.metric] = v
	}
	return out
}
