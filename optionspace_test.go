package vlt

import (
	"flag"
	"fmt"
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

// TestAcceptedOptionSpace: every cell of the option space either
// simulates and verifies, with a VetCell-clean program, or is refused by
// resolveCell before its first cycle. It runs sampleOptionGrid, or with
// -optionspace.full all of fullOptionGrid (as scripts/check.sh does).
func TestAcceptedOptionSpace(t *testing.T) {
	cells := sampleOptionGrid()
	if *fullOptionSpace {
		cells = fullOptionGrid()
	}
	var ran, refused atomic.Int64
	t.Cleanup(func() {
		t.Logf("%d cells: %d simulated and verified, %d refused before simulating",
			len(cells), ran.Load(), refused.Load())
	})
	for _, c := range cells {
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
		})
	}
}
