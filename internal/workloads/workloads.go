package workloads

import (
	"fmt"
	"sort"
	"strings"

	"vlt/internal/asm"
	"vlt/internal/vm"
)

// Class buckets the workloads the way the paper's evaluation does.
type Class int

const (
	// LongVector workloads (mxm, sage) saturate all lanes with a single
	// thread; VLT leaves them untouched.
	LongVector Class = iota
	// ShortVector workloads (mpenc, trfd, multprec, bt) vectorize with
	// medium or short vectors and run as 2 or 4 VLT vector threads.
	ShortVector
	// ScalarParallel workloads (radix, ocean, barnes) do not vectorize;
	// they run as scalar threads on the lanes (Figure 6).
	ScalarParallel
)

func (c Class) String() string {
	switch c {
	case LongVector:
		return "long-vector"
	case ShortVector:
		return "short-vector"
	case ScalarParallel:
		return "scalar-parallel"
	}
	return "unknown"
}

// Params selects the build variant of a workload.
type Params struct {
	// Threads is the SPMD thread count the program is built for.
	Threads int
	// Scale multiplies the default problem size (1 = calibrated default;
	// larger values for longer benchmark runs).
	Scale int
	// NoLaneReclaim suppresses the VLTCFG lane-reclamation idiom around
	// serial phases (thread 0 then runs them on its own partition with a
	// capped vector length). Used by the phase-switching extension study.
	NoLaneReclaim bool
	// ScalarOnly builds the workload without any vector instructions,
	// the variant used when threads run on the lane cores (Figure 6) or
	// on the CMT baseline, which have no vector unit. Only meaningful
	// for the ScalarParallel workloads (the others are inherently
	// vector).
	ScalarOnly bool
}

func (p Params) norm() Params {
	if p.Threads < 1 {
		p.Threads = 1
	}
	if p.Scale < 1 {
		p.Scale = 1
	}
	return p
}

// Table4Row is the paper's published characterization for one workload.
type Table4Row struct {
	PercentVect    float64 // % of operations that are vector element ops
	AvgVL          float64 // average vector length
	CommonVLs      []int   // most frequent vector lengths
	OpportunityPct float64 // % of base execution time amenable to VLT
}

// Workload is one benchmark.
type Workload struct {
	Name        string
	Description string
	Class       Class

	// Paper is the Table 4 target signature (zero-valued fields for the
	// long-vector workloads' unused columns).
	Paper Table4Row

	// Build constructs the SPMD program for the given parameters.
	Build func(p Params) *asm.Program

	// Verify checks the computed results in the finished machine against
	// a Go reference. It must be called with the same Params the program
	// was built with.
	Verify func(machine *vm.VM, prog *asm.Program, p Params) error
}

var registry []*Workload

func register(w *Workload) *Workload {
	registry = append(registry, w)
	return w
}

// All returns every workload in the paper's Table 4 order.
func All() []*Workload {
	out := make([]*Workload, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		return tableOrder(out[i].Name) < tableOrder(out[j].Name)
	})
	return out
}

func tableOrder(name string) int {
	order := []string{"mxm", "sage", "mpenc", "trfd", "multprec", "bt", "radix", "ocean", "barnes"}
	for i, n := range order {
		if n == name {
			return i
		}
	}
	return len(order)
}

// ByName returns the named workload, or an error listing every name.
func ByName(name string) (*Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range All() {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// ShortVectorSet returns the four VLT vector-thread workloads in paper
// order (Figures 3, 4, 5).
func ShortVectorSet() []*Workload { return byClass(ShortVector) }

// ScalarSet returns the three scalar-thread workloads (Figure 6).
func ScalarSet() []*Workload { return byClass(ScalarParallel) }

// LongVectorSet returns the two long-vector workloads.
func LongVectorSet() []*Workload { return byClass(LongVector) }

func byClass(c Class) []*Workload {
	var out []*Workload
	for _, w := range All() {
		if w.Class == c {
			out = append(out, w)
		}
	}
	return out
}
