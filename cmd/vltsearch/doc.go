// Command vltsearch explores the lane-repartition design space of one
// workload on one machine by speculative simulation: every VLTCFG the
// program issues becomes a decision point where the search forks the
// mid-run machine and tries alternative partition counts, without
// replaying the prefix. The best plan found is replayed from scratch
// and functionally verified before it is reported.
//
// Usage:
//
//	vltsearch -workload mpenc -machine V4-CMT [flags]
//
// The search tries every alternative partition count at the first
// -depth decisions, bounded by -budget total simulated runs. No kernel
// issues more than two decisions, so the default budget covers the
// whole tree. The search is deterministic for fixed flags at any -jobs.
package main
