package main

import (
	"fmt"
	"strings"

	"vlt"
)

// reproduce regenerates the paper the way `vltexp -all` does: each
// operation is one full regeneration on a fresh parallel engine, diffed
// against the golden text. The input is the paper itself, so the seed
// changes nothing. The serial engine's regeneration is timed by a probe
// (expall.serial_s).
type reproduce struct{}

func (w *reproduce) setup(r *run) error {
	if !r.smoke {
		r.check("warm-up", w.regenerate(r))
	}
	return nil
}

func (w *reproduce) round(r *run) {
	r.op(opRegenerate, func() error { return w.regenerate(r) })
}

func (w *reproduce) regenerate(r *run) error {
	eng := vlt.NewEngine(0)
	text, err := renderAll(eng)
	if err != nil {
		return err
	}
	st := eng.Stats()
	r.count("engine.cells_requested", float64(st.Submitted))
	r.count("engine.cells_simulated", float64(st.Unique))
	return checkText(text, expallGolden)
}

func (w *reproduce) close() {}

// exploreCell is one explore simulation: a Figure-5 cell (or its base
// run) at scale 4, or a Figure-6 cell at scale 2.
type exploreCell struct {
	workload string
	machine  vlt.Machine
	scale    int
}

func (c exploreCell) String() string {
	return fmt.Sprintf("%s/%s@%d", c.workload, c.machine, c.scale)
}

// exploreCells lists the explore cells in golden order.
func exploreCells() []exploreCell {
	var cells []exploreCell
	for _, w := range []string{"mpenc", "trfd", "multprec", "bt"} {
		for _, m := range append([]vlt.Machine{vlt.MachineBase}, vlt.Figure5Configs...) {
			cells = append(cells, exploreCell{w, m, 4})
		}
	}
	for _, w := range []string{"radix", "ocean", "barnes"} {
		for _, m := range []vlt.Machine{vlt.MachineCMT, vlt.MachineVLTScalar} {
			cells = append(cells, exploreCell{w, m, 2})
		}
	}
	return cells
}

// exploreSearches are the exhaustive lane-partition searches of each
// explore round, on V4-CMT at scale 4.
var exploreSearches = []string{"mpenc", "multprec", "bt"}

// cellGoldenLine and searchGoldenLine render the explore golden's lines:
// a cell's cycle count and the digest of its full metric snapshot, and a
// search's best and default cycle counts and run count.
func cellGoldenLine(c exploreCell, res vlt.Result) string {
	return fmt.Sprintf("cell %s %d %s", c, res.Cycles, digest([]byte(res.Metrics.String())))
}

func searchGoldenLine(w string, res vlt.SearchResult) string {
	return fmt.Sprintf("search %s/%s@4 %d %d %d", w, vlt.MachineV4CMT, res.Best.Cycles, res.DefaultCycles, len(res.Runs))
}

// explore runs the long cells with verification on and the searches on
// two workers, one per CPU, which take jobs from one queue in a fixed
// order, longest first, so both finish a round together and the same
// jobs overlap from run to run. Like reproduce, its input is the paper:
// the seed changes nothing.
type explore struct {
	golden map[string]string // "cell mpenc/base@4" -> whole golden line
	jobs   []exploreJob
}

// exploreJob is one operation of an explore round: a cell (opCell) or a
// search (opSearch).
type exploreJob struct {
	kind string
	run  func(r *run) error
}

func (w *explore) setup(r *run) error {
	w.golden = map[string]string{}
	for _, line := range strings.Split(exploreGolden, "\n") {
		if f := strings.Fields(line); len(f) > 2 {
			w.golden[f[0]+" "+f[1]] = line
		}
	}
	w.jobs = nil
	for _, wl := range exploreSearches {
		wl := wl
		w.jobs = append(w.jobs, exploreJob{opSearch, func(r *run) error {
			res, err := vlt.SearchLanePartition(wl, vlt.MachineV4CMT, vlt.SearchOptions{Scale: 4, Workers: 1})
			if err != nil {
				return err
			}
			r.count("search.runs", float64(res.Simulated))
			return w.expect("search "+wl+"/"+string(vlt.MachineV4CMT)+"@4", searchGoldenLine(wl, res), res.Verified)
		}})
	}
	cells := exploreCells()
	for i := len(cells) - 1; i >= 0; i-- { // the Figure-6 cells, the longest, first
		c := cells[i]
		w.jobs = append(w.jobs, exploreJob{opCell, func(r *run) error {
			res, err := vlt.Run(c.workload, c.machine, vlt.Options{Scale: c.scale})
			if err != nil {
				return err
			}
			w.countSim(r, res)
			return w.expect("cell "+c.String(), cellGoldenLine(c, res), res.Verified)
		}})
	}
	if r.smoke {
		return nil
	}
	// Warm up on every cell at scale 1, where only verification is
	// checked: the goldens hold the long cells.
	for _, c := range cells {
		res, err := vlt.Run(c.workload, c.machine, vlt.Options{})
		if err == nil && !res.Verified {
			err = fmt.Errorf("%s/%s: not verified", c.workload, c.machine)
		}
		r.check("warm-up", err)
	}
	return nil
}

func (w *explore) round(r *run) {
	queue := make(chan exploreJob, len(w.jobs))
	for _, job := range w.jobs {
		queue <- job
	}
	close(queue)
	r.check("workers", concurrently(func(int) error {
		for job := range queue {
			r.op(job.kind, func() error { return job.run(r) })
		}
		return nil
	}))
}

// expect checks one result line against the golden.
func (w *explore) expect(key, line string, verified bool) error {
	if !verified {
		return fmt.Errorf("%s: not verified", key)
	}
	if want, ok := w.golden[key]; !ok {
		return fmt.Errorf("%s: no golden line", key)
	} else if line != want {
		return fmt.Errorf("got %q, golden %q", line, want)
	}
	return nil
}

// countSim adds a cell's simulated work to the sim.* counts.
func (w *explore) countSim(r *run, res vlt.Result) {
	m := res.Metrics.Map()
	for name, key := range map[string]string{
		"sim.cycles":         "machine.cycles",
		"sim.retired":        "machine.retired",
		"sim.vcl_issued":     "vcl.issued",
		"sim.vcl_elem_ops":   "vcl.elem_ops",
		"sim.l2_reads":       "l2.reads",
		"sim.l2_misses":      "l2.tag.misses",
		"sim.l2_bank_stalls": "l2.bank_stalls",
	} {
		r.count(name, m[key])
	}
}

func (w *explore) close() {}
