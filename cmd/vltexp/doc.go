// Command vltexp regenerates the tables and figures of "Vector Lane
// Threading" (ICPP 2006) on this repository's simulator.
//
// Usage:
//
//	vltexp [-scale N] [-jobs N] [-progress] [-all | -json | [-fig 1|3|4|5|6] [-tab 1|2|3|4] [-ext]]
//	vltexp -metrics WORKLOAD [-machine M] [-scale N]
//
// The experiments are the entries of the vlt.Experiments catalogue: -fig N
// prints figureN, -tab N tableN (1 and 2 are the area model), -ext the
// extension studies; those three combine. -all, the default, prints every
// entry in catalogue order and -json exports every dataset as one JSON
// object. Simulations fan out over the memoizing experiment engine, at
// most -jobs at once (-jobs 1 runs them one at a time); -progress reports
// completed/total cells on stderr. -metrics runs one cell of the grid: it
// simulates and verifies one workload on one machine and prints its full
// metric registry. The modes are exclusive and -machine belongs to
// -metrics: a conflict is a usage error (exit 2).
package main
