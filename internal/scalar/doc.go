// Package scalar implements the timing model of the scalar unit (SU): a
// wide-issue, out-of-order, speculative superscalar processor with L1
// instruction and data caches and optional simultaneous multithreading.
// It follows the paper's Table 3: 4-way fetch/issue/retire, 64-entry
// instruction window and reorder buffer, 4 arithmetic units, 2 memory
// ports, 16 KB 2-way L1 caches (a 2-way SU halves every resource).
//
// The SU fetches both scalar and vector instructions. Vector instructions
// are tracked in the reorder buffer for precise exceptions and handed to
// the vector control logic's instruction queue at dispatch; scalar
// instructions rename implicitly (last-writer tracking with a window-
// bounded number of in-flight destinations) and issue out of order.
// Each SMT context's fetch gating, fetch step and last-writer tracking
// is a pipe.Frontend, the one the lane cores embed too; producers are
// captured at dispatch.
//
// The scheduler window is split by what issue needs to know. A
// dispatched uop whose producers have all completed goes on issueQ with
// its ready cycle, in age order across contexts; one still waiting on a
// producer is parked until the producer's pipe.Arena.Complete wakes it,
// and then joins issueQ at its age. issue and NextEvent walk issueQ
// only and compare its cached cycles, so a cycle's scan touches the
// uops it issues and no others. The auditor's su<N>.waiting check
// (CheckWaiting) holds the split to the producers' DoneCycles.
//
// The functional simulator is the fetch stage: vm.Step executes the
// architecturally correct path, and the branch predictor decides only how
// much fetch time speculation would have cost.
//
// event.go is the unit's part in the machine's cycle skipping
// (DESIGN.md §11). Its NextEvent and SkipIdle ask the rules the Tick
// steps ask: Uop.RetireCycle for retirement, issueQ's ready cycles for issue,
// the dispatch-head classifier headStall (charged through chargeStall)
// for dispatch, and fetchable for fetch.
package scalar
