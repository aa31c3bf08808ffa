// Command vltexp regenerates the tables and figures of "Vector Lane
// Threading" (ICPP 2006) on this repository's simulator.
//
// Usage:
//
//	vltexp [-scale N] [-jobs N] [-progress] [-fig 1|3|4|5|6] [-tab 1|2|3|4] [-ext] [-all]
//	vltexp -metrics WORKLOAD [-machine M] [-scale N]
//
// The experiments are the entries of the vlt.Experiments catalogue: -fig N
// prints figureN, -tab N tableN (1 and 2 are the area model), -ext the
// extension studies. Without flags it prints every entry in catalogue
// order (equivalent to -all). Simulations
// fan out over the memoizing experiment engine, at most -jobs at once
// (-jobs 1 runs them one at a time); -progress reports completed/total
// cells on stderr. -metrics runs one cell of the grid: it simulates and
// verifies one workload on one machine and prints its full metric
// registry.
package main
