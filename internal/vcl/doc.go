// Package vcl implements the timing model of the vector control logic and
// the multi-lane vector unit datapaths: the vector instruction queue,
// implicit vector register renaming, the vector instruction window with
// out-of-order issue and chaining, per-lane functional-unit occupancy, and
// the datapath utilization accounting behind the paper's Figure 4.
//
// Vector Lane Threading appears here as partitions: the lanes are divided
// into equal groups, each owned by one software thread. Resources (VIQ and
// window entries, issue slots) are statically partitioned across the
// groups, the design point the paper found performs as well as a fully
// replicated VCL. CheckPartitions is the one rule for which partition
// counts a unit takes; the machine's configuration check, its fork-point
// choices and Partition itself all ask it.
//
// Each partition keeps three summaries of its queues current as uops
// enter and issue: a per-datapath count of unissued VecALU uops, which
// the Figure-4 census asks instead of scanning; the count of unissued
// window entries, so issue and NextEvent skip a window whose entries
// have all issued; and a lower bound on the issued entries'
// completions, before which window retirement has nothing to scan and
// which NextEvent folds in their place. The auditor's
// vcl.pending-counts check (CheckPending) holds all three to a scan.
//
// event.go is the unit's part in the machine's cycle skipping
// (DESIGN.md §11). NextEvent asks readyCycle, the rule issue asks;
// SkipIdle charges a skipped span through census, the Figure-4
// accounting Tick runs for one cycle; and DrainCycle is the one drain
// rule, which a pending lane repartition waits on in both schedulers.
package vcl
