package vlt

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

var fullOptionSpace = flag.Bool("optionspace.full", false,
	"TestAcceptedOptionSpace: run every cell of the option grid, not the sample")

// optionLanes are the lane counts the option grid tries: 0 (the
// machine's default), 1 to 7, 12 and 16.
var optionLanes = []int{0, 1, 2, 3, 4, 5, 6, 7, 12, 16}

// optionCell is one point of the option space vlt.Run takes.
type optionCell struct {
	w   string
	m   Machine
	opt Options
}

func (c optionCell) String() string {
	return fmt.Sprintf("%s/%s,lanes=%d,threads=%d", c.w, c.m, c.opt.Lanes, c.opt.Threads)
}

// accepted reports whether resolveCell takes the cell, that is whether
// it would reach its first simulated cycle.
func (c optionCell) accepted() bool {
	_, err := resolveCell(c.w, c.m, c.opt)
	return err == nil
}

// optionSet collects the cells of a grid: each accepted cell once per
// cell key (a later cell with the same key would simulate the same
// machine on the same program), and refused cells when asked to.
type optionSet struct {
	cells []optionCell
	keys  map[string]bool
}

// add appends the first cell of cs that resolveCell accepts, unless its
// key is already in the set. If it accepts none, add appends the
// refused cells of cs when refused is set.
func (s *optionSet) add(refused bool, cs ...optionCell) {
	for _, c := range cs {
		if !c.accepted() {
			continue
		}
		if s.keys == nil {
			s.keys = map[string]bool{}
		}
		if k, _ := CellKey(c.w, c.m, c.opt); !s.keys[k] {
			s.keys[k] = true
			s.cells = append(s.cells, c)
		}
		return
	}
	if refused {
		s.cells = append(s.cells, cs...)
	}
}

// fullOptionGrid is every machine × workload × lane count of
// optionLanes × threads 0–8: 8,100 cells, of which resolveCell accepts
// 2,166, with 1,386 distinct cell keys.
func fullOptionGrid() []optionCell {
	var s optionSet
	for _, m := range Machines() {
		for _, w := range Workloads() {
			for _, lanes := range optionLanes {
				for threads := 0; threads <= 8; threads++ {
					s.add(true, optionCell{w, m, Options{Lanes: lanes, Threads: threads}})
				}
			}
		}
	}
	return s.cells
}

// sampleOptionGrid is a fixed sample of fullOptionGrid, 101 accepted
// and 45 refused cells:
//   - every workload at every thread count 1–8, once on the first
//     machine with a vector unit that accepts it and once on the first
//     scalar-only machine (CMT, VLT-scalar) that does, each at the first
//     lane count of optionLanes that resolveCell accepts;
//   - every lane count of optionLanes on every machine that accepts it
//     at its own thread count, the workload chosen round-robin;
//   - every workload at every thread count 1–8 that V4-CMP refuses at
//     its 8 lanes.
//
// So it holds radix at every thread count in both of its builds, every
// vector workload at 3 partitions (3 lanes on V4-SMT), every lane count
// some machine accepts, every machine, and both kinds of refusal (a
// partition count that does not split the lanes, too few SMT slots).
func sampleOptionGrid() []optionCell {
	var s optionSet
	ws := Workloads()
	for _, w := range ws {
		for threads := 1; threads <= 8; threads++ {
			var vector, scalar []optionCell
			for _, m := range Machines() {
				for _, lanes := range optionLanes {
					c := optionCell{w, m, Options{Lanes: lanes, Threads: threads}}
					if m == MachineCMT || m == MachineVLTScalar {
						scalar = append(scalar, c)
					} else {
						vector = append(vector, c)
					}
				}
			}
			s.add(false, vector...)
			s.add(false, scalar...)
		}
	}
	k := 0
	for _, lanes := range optionLanes {
		for _, m := range Machines() {
			var cs []optionCell
			for j := range ws {
				cs = append(cs, optionCell{ws[(k+j)%len(ws)], m, Options{Lanes: lanes}})
			}
			k++
			s.add(false, cs...)
		}
	}
	for _, w := range ws {
		for threads := 1; threads <= 8; threads++ {
			if c := (optionCell{w, MachineV4CMP, Options{Threads: threads}}); !c.accepted() {
				s.add(true, c)
			}
		}
	}
	return s.cells
}

// optionSpaceGolden pins the result of every accepted cell of
// sampleOptionGrid, one line per cell: its name, cycles, instructions
// retired and the sha256 of its metric snapshot without the guard.
// metrics, so the file reads the same under any VLT_AUDIT. It is one of
// formatOutputs, so a model or preset change that moves a sampled cell
// fails TestFormatVersionPinsOutputs until store.FormatVersion is bumped.
// The cell key hashes only the resolved request, so this sample is what
// ties the version to cells off the paper's defaults: a change that
// moves only cells outside it moves no key and needs no bump.
// Regenerate with `go test -run '^TestAcceptedOptionSpace$' -update .`.
var optionSpaceGolden = filepath.Join("testdata", "optionspace.golden")

// goldenLine renders c's line of optionSpaceGolden from its result.
func goldenLine(c optionCell, r Result) string {
	var ms Metrics
	for _, m := range r.Metrics {
		if !strings.HasPrefix(m.Name, "guard.") {
			ms = append(ms, m)
		}
	}
	return fmt.Sprintf("%s cycles=%d retired=%d metrics=%x",
		c, r.Cycles, r.Retired, sha256.Sum256([]byte(ms.String())))
}

// readOptionSpaceGolden maps each cell name of optionSpaceGolden to its
// line.
func readOptionSpaceGolden(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(optionSpaceGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(b), "\n"), "\n") {
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	return want
}

// TestAcceptedOptionSpace: every cell of the option space either
// simulates and verifies, with a VetCell-clean program, or is refused by
// resolveCell before its first cycle. It runs sampleOptionGrid, each
// accepted cell's result compared with optionSpaceGolden, or with
// -optionspace.full all of fullOptionGrid (as scripts/check.sh does),
// the cells the golden names compared with it.
func TestAcceptedOptionSpace(t *testing.T) {
	cells := sampleOptionGrid()
	if *fullOptionSpace {
		if *updateGolden {
			t.Fatal("-update rewrites the sample's golden; run it without -optionspace.full")
		}
		cells = fullOptionGrid()
	}
	var want map[string]string
	lines := make([]string, len(cells))
	if *updateGolden {
		t.Cleanup(func() {
			var sb strings.Builder
			for _, line := range lines {
				if line != "" {
					sb.WriteString(line + "\n")
				}
			}
			if err := os.WriteFile(optionSpaceGolden, []byte(sb.String()), 0o644); err != nil {
				t.Error(err)
			}
		})
	} else {
		want = readOptionSpaceGolden(t)
		if !*fullOptionSpace {
			accepted := 0
			for _, c := range cells {
				if c.accepted() {
					accepted++
					if want[c.String()] == "" {
						t.Errorf("%s: accepted cell missing from %s (regenerate with -update)", c, optionSpaceGolden)
					}
				}
			}
			if accepted != len(want) {
				t.Errorf("%s has %d cells, the sample accepts %d (regenerate with -update)", optionSpaceGolden, len(want), accepted)
			}
		}
	}
	var ran, refused atomic.Int64
	t.Cleanup(func() {
		t.Logf("%d cells: %d simulated and verified, %d refused before simulating",
			len(cells), ran.Load(), refused.Load())
	})
	for i, c := range cells {
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			if _, err := resolveCell(c.w, c.m, c.opt); err != nil {
				if _, rerr := Run(c.w, c.m, c.opt); rerr == nil || rerr.Error() != err.Error() {
					t.Fatalf("Run: %v, want resolveCell's refusal %v", rerr, err)
				}
				refused.Add(1)
				return
			}
			if err := VetCell(c.w, c.m, c.opt); err != nil {
				t.Errorf("VetCell: %v", err)
			}
			r, err := Run(c.w, c.m, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Verified {
				t.Fatal("not verified")
			}
			ran.Add(1)
			lines[i] = goldenLine(c, r)
			if w, ok := want[c.String()]; ok && lines[i] != w {
				t.Errorf("result moved from %s (regenerate with -update and bump store.FormatVersion if intended):\ngot  %s\nwant %s",
					optionSpaceGolden, lines[i], w)
			}
		})
	}
}
