// Package stats is the simulator's unified metric registry: every timing
// and functional layer (scalar units, lane cores, the VCL, the memory
// system, the functional VM and the machine model itself) registers its
// counters here under hierarchical dot-separated names such as
// "su0.fetch.stall.rob", "lane3.stall.mem_port" or "l2.bank_stalls".
//
// Design constraints, in order:
//
//  1. Zero hot-path cost. Counters stay plain uint64 fields on their
//     owning component; the registry stores a *pointer* and reads it only
//     when a snapshot is taken. Simulation loops never touch the registry
//     (no atomics, no map lookups, no interface calls per event).
//  2. Full-fidelity export. A Snapshot preserves integer counters exactly
//     and derived ratios as float64, sorted by name, ready for JSON, a
//     golden file, or a pretty-printer.
//  3. Live reads. Float evaluates one metric right now, so a caller
//     that runs the machine in RunUntil steps reads a time series
//     (occupancy over time) from the same registry; the registry
//     records nothing between reads.
//
// A Registry is not safe for concurrent use; each simulated Machine owns
// exactly one (machines are already single-goroutine by construction).
package stats
