package core

import (
	"cmp"
	"fmt"
	"strings"

	"vlt/internal/guard"
	"vlt/internal/lane"
	"vlt/internal/mem"
	"vlt/internal/scalar"
	"vlt/internal/vcl"
)

// Config describes one simulated machine.
type Config struct {
	Name string

	// Lanes is the number of vector lanes (0 = no vector unit).
	Lanes int

	// SUs lists the scalar units. Software threads are assigned to SMT
	// context slots in order: SU 0 slot 0, SU 0 slot 1, SU 1 slot 0, ...
	SUs []scalar.Config

	VCL vcl.Config
	L2  mem.L2Config

	// LaneScalarMode runs every software thread on a lane core (Section 5)
	// instead of on the scalar units.
	LaneScalarMode bool
	LaneCore       lane.Config

	// NumThreads is the number of software threads the program runs with.
	NumThreads int

	// InitialPartitions is the initial lane partitioning; partitions are
	// owned by threads 0..InitialPartitions-1. Programs may change it with
	// VLTCFG.
	InitialPartitions int

	// MaxCycles aborts runaway simulations (0 = 2e9 cycles).
	MaxCycles uint64

	// StallLimit aborts the run with a *guard.StallError (carrying a full
	// diagnostic dump) when no instruction retires anywhere in the
	// machine for this many consecutive cycles — a livelock or deadlock
	// in the timing model (0 = guard.DefaultStallLimit).
	StallLimit uint64

	// Audit enables the runtime invariant auditor, which cross-checks the
	// components' internal accounting (scoreboard occupancy, cache
	// counters, stage-counter monotonicity, retirement conservation)
	// every guard.AuditEvery cycles and aborts with a
	// *guard.InvariantError on a violation. The zero value AuditAuto
	// turns it on under `go test` and off otherwise; the VLT_AUDIT
	// environment variable (on/off) overrides. The vlt package's cells
	// always carry the resolved AuditOn or AuditOff.
	Audit guard.AuditMode

	// SampleEvery, when non-zero, enables the metric registry's
	// time-series sampler: the vector-datapath occupancy census and
	// overall progress (sampleMetrics) are recorded every SampleEvery
	// cycles. Read the series back with Machine.Sampler or
	// Result.Samples after the run.
	SampleEvery uint64

	// NoSkip disables event-driven cycle skipping: the machine ticks
	// every cycle. It is the reference path: the root package's
	// equivalence harness requires every other way of running a cell
	// (skipping, forking, auditing) to reproduce its metric snapshot,
	// and the BenchmarkBaseMXMTick baseline times it. Set it to bisect a
	// suspected skip bug: a number that moves with it is a scheduler bug.
	NoSkip bool

	// ForkAt, when set, is called at every lane-repartition decision —
	// the cycle a VLTCFG is about to be applied — with the machine and
	// the decision's ForkPoint. Returning a positive count from
	// Machine.PartitionChoices overrides the program's requested
	// partition count; returning 0 (or the requested count, or an
	// invalid one) keeps the program's choice, cycle-for-cycle identical
	// to running without a hook. The hook may Fork the machine to
	// explore the choices it does not take — that is what
	// internal/search does. Timing-model state must not be mutated from
	// the hook. Fork clears this field on the clone; set it again with
	// SetForkAt.
	ForkAt func(*Machine, ForkPoint) int
}

// Validate checks structural consistency: every size and count of a
// component the machine builds is at least 1, and there are enough SMT
// slots, lane cores and lane partitions for the threads.
func (c Config) Validate() error {
	if c.NumThreads < 1 {
		return fmt.Errorf("core: config %q: NumThreads %d < 1", c.Name, c.NumThreads)
	}
	// The sizes and counts of the components the machine builds. None
	// has a meaning at zero; latencies and penalties may be 0.
	vector, laneCores := c.Lanes > 0 && !c.LaneScalarMode, c.LaneScalarMode
	for _, f := range []struct {
		field string
		n     int
		built bool
	}{
		{"L2.SizeBytes", c.L2.SizeBytes, true}, {"L2.Assoc", c.L2.Assoc, true},
		{"L2.Banks", c.L2.Banks, true}, {"L2.BankPorts", c.L2.BankPorts, true},
		{"VCL.IssueWidth", c.VCL.IssueWidth, vector}, {"VCL.VIQSize", c.VCL.VIQSize, vector},
		{"VCL.WindowSize", c.VCL.WindowSize, vector}, {"VCL.PhysRegs", c.VCL.PhysRegs, vector},
		{"LaneCore.Width", c.LaneCore.Width, laneCores},
		{"LaneCore.RetireQueue", c.LaneCore.RetireQueue, laneCores},
		{"LaneCore.ICache.SizeBytes", c.LaneCore.ICache.SizeBytes, laneCores},
	} {
		if f.built && f.n < 1 {
			return fmt.Errorf("core: config %q: %s %d < 1", c.Name, f.field, f.n)
		}
	}
	if c.LaneScalarMode {
		if c.Lanes < c.NumThreads {
			return fmt.Errorf("core: config %q: %d lane cores cannot run %d threads",
				c.Name, c.Lanes, c.NumThreads)
		}
		return nil
	}
	slots := 0
	for _, su := range c.SUs {
		slots += su.Contexts
	}
	if slots < c.NumThreads {
		return fmt.Errorf("core: config %q: %d SMT slots cannot run %d threads",
			c.Name, slots, c.NumThreads)
	}
	if c.Lanes > 0 {
		p := c.InitialPartitions
		if p < 1 {
			return fmt.Errorf("core: config %q: InitialPartitions %d < 1", c.Name, p)
		}
		if c.Lanes%p != 0 {
			return fmt.Errorf("core: config %q: %d lanes not divisible into %d partitions",
				c.Name, c.Lanes, p)
		}
	}
	return nil
}

// --- the paper's machine configurations ---

// table3 returns the paper's Table 3 machine, every component complete:
// lanes vector lanes (0 = none) behind the scalar units sus, running
// threads software threads on partitions initial lane partitions. Every
// preset starts here, and each component's numbers live in its own
// package's constructor.
func table3(name string, lanes, threads, partitions int, sus ...scalar.Config) Config {
	return Config{
		Name:              name,
		Lanes:             lanes,
		SUs:               sus,
		VCL:               vcl.DefaultConfig(),
		L2:                mem.DefaultL2Config(),
		LaneCore:          lane.DefaultConfig(),
		NumThreads:        threads,
		InitialPartitions: partitions,
	}
}

// Base returns the base vector processor of Table 3 with the given lane
// count, running a single thread.
func Base(lanes int) Config {
	return table3(fmt.Sprintf("base-%dL", lanes), lanes, 1, 1, scalar.Config4Way())
}

// vltConfig builds a VLT machine with 8 lanes and threads partitions.
func vltConfig(name string, threads int, sus ...scalar.Config) Config {
	return table3(name, 8, threads, threads, sus...)
}

// V2SMT: 2 VLT threads on one 2-way-multithreaded 4-way SU.
func V2SMT() Config {
	return vltConfig("V2-SMT", 2, scalar.Config4Way().WithSMT(2))
}

// V2CMP: 2 VLT threads on two replicated 4-way SUs.
func V2CMP() Config {
	return vltConfig("V2-CMP", 2, scalar.Config4Way(), scalar.Config4Way())
}

// V2CMPh: 2 VLT threads on heterogeneous SUs (one 4-way, one 2-way).
func V2CMPh() Config {
	return vltConfig("V2-CMP-h", 2, scalar.Config4Way(), scalar.Config2Way())
}

// V4SMT: 4 VLT threads on one 4-way-multithreaded SU.
func V4SMT() Config {
	return vltConfig("V4-SMT", 4, scalar.Config4Way().WithSMT(4))
}

// V4CMT: 4 VLT threads on two 4-way SUs, each 2-way multithreaded.
func V4CMT() Config {
	return vltConfig("V4-CMT", 4, scalar.Config4Way().WithSMT(2), scalar.Config4Way().WithSMT(2))
}

// V4CMP: 4 VLT threads on four replicated 4-way SUs.
func V4CMP() Config {
	return vltConfig("V4-CMP", 4,
		scalar.Config4Way(), scalar.Config4Way(), scalar.Config4Way(), scalar.Config4Way())
}

// V4CMPh: 4 VLT threads on one 4-way and three 2-way SUs.
func V4CMPh() Config {
	return vltConfig("V4-CMP-h", 4,
		scalar.Config4Way(), scalar.Config2Way(), scalar.Config2Way(), scalar.Config2Way())
}

// CMT: the scalar-only baseline of Section 7.2 — the V4-CMT configuration
// without the vector unit: two 4-way SUs, each 2-way multithreaded,
// running numThreads scalar threads.
func CMT(numThreads int) Config {
	return table3("CMT", 0, numThreads, 1, scalar.Config4Way().WithSMT(2), scalar.Config4Way().WithSMT(2))
}

// VLTScalar: 8 scalar threads running on the 8 vector lanes as 2-way
// in-order cores (Section 5). The scalar unit services lane I-cache
// misses but runs no thread, as in the paper.
func VLTScalar(numThreads int) Config {
	c := table3("VLT-scalar", 8, numThreads, 1)
	c.LaneScalarMode = true
	return c
}

// machines is the one table of the paper's machine configurations by
// name, in the paper's order. build returns the machine with the given
// vector lane count at its natural software thread count.
var machines = []struct {
	name  string
	build func(lanes int) Config
}{
	{"base", Base},
	{"V2-SMT", withLanes(V2SMT)},
	{"V2-CMP", withLanes(V2CMP)},
	{"V2-CMP-h", withLanes(V2CMPh)},
	{"V4-SMT", withLanes(V4SMT)},
	{"V4-CMT", withLanes(V4CMT)},
	{"V4-CMP", withLanes(V4CMP)},
	{"V4-CMP-h", withLanes(V4CMPh)},
	{"CMT", func(int) Config { return CMT(4) }},
	{"VLT-scalar", func(int) Config { return VLTScalar(8) }},
}

// withLanes adapts a VLT machine's constructor to a lane count.
func withLanes(vltMachine func() Config) func(lanes int) Config {
	return func(lanes int) Config {
		cfg := vltMachine()
		cfg.Lanes = lanes
		return cfg
	}
}

// MachineNames lists every machine ByName resolves, in the paper's order.
func MachineNames() []string {
	names := make([]string, len(machines))
	for i, m := range machines {
		names[i] = m.name
	}
	return names
}

// ByName resolves a machine configuration by name. lanes sets the vector
// lane count (0 = 8; the scalar-only CMT and the lane cores of VLT-scalar
// keep their own) and threads the software thread count (0 = the
// machine's natural count: 1 for base, 2 for V2-*, 4 for V4-* and CMT, 8
// for VLT-scalar). A machine with a vector unit starts with one lane
// partition per thread. A negative lane or thread count is an error.
func ByName(name string, lanes, threads int) (Config, error) {
	if lanes < 0 {
		return Config{}, fmt.Errorf("bad lane count %d for machine %q: want a non-negative integer (0 = 8)", lanes, name)
	}
	if threads < 0 {
		return Config{}, fmt.Errorf("bad thread count %d for machine %q: want a non-negative integer (0 = the machine's own)", threads, name)
	}
	for _, m := range machines {
		if m.name != name {
			continue
		}
		cfg := m.build(cmp.Or(lanes, 8))
		if threads != 0 {
			cfg.NumThreads = threads
		}
		if cfg.Lanes > 0 && !cfg.LaneScalarMode {
			cfg.InitialPartitions = cfg.NumThreads
		}
		return cfg, nil
	}
	return Config{}, fmt.Errorf("unknown machine %q (have %s)", name, strings.Join(MachineNames(), ", "))
}
