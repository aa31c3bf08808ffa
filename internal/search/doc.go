// Package search explores the lane-repartition design space of a VLT
// machine by speculative simulation. It builds on core.Machine.Fork: a
// single run proceeds down the program's own VLTCFG choices while a
// SetForkAt hook forks the machine at each repartition decision and steers
// every copy down an alternative partition count. Each fork is an
// O(state) snapshot, so exploring a choice costs only the simulation
// from that decision onward — never a replay of the prefix.
//
// The driver is wave-synchronized and deterministic: every job in a
// wave runs to completion (on a runner.Slots), every run's children
// form the next wave in wave order, and the budget truncates a wave
// before it starts. The search is exhaustive down to Depth decisions:
// no kernel issues more than two repartition decisions, so the whole
// tree is a handful of runs. A fixed machine builder, budget and depth
// always produce the identical Outcome, regardless of worker count or
// goroutine scheduling.
package search
