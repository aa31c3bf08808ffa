// Command vltexp regenerates the tables and figures of "Vector Lane
// Threading" (ICPP 2006) on this repository's simulator.
//
// Usage:
//
//	vltexp [-scale N] [-jobs N] [-progress] [-fig 1|3|4|5|6] [-tab 1|2|3|4] [-all]
//
// Without flags it prints everything (equivalent to -all). Simulations
// fan out over the memoizing experiment engine, at most -jobs at once
// (-jobs 1 runs them one at a time); -progress reports completed/total
// cells on stderr.
package main
