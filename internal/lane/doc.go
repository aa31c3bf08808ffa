// Package lane implements the timing model of a vector lane re-engineered
// to run a scalar thread (Section 5 of the paper): a 2-way in-order core
// built from the lane's existing resources (3 arithmetic datapaths, 2
// memory ports, the vector register file partition repurposed as a 4 KB
// instruction cache). There is no data cache: loads and stores access the
// shared L2 directly, and the lane's existing address queues decouple
// loads from dependent consumers (in-order issue, out-of-order
// completion).
//
// Fetch follows the scalar unit's rules through the shared
// pipe.Frontend; producers are captured at fetch (there is no rename
// stage). Instruction-cache misses are forwarded through the scalar
// unit, which adds a fixed service overhead on top of the L2 access.
//
// event.go is the core's part in the machine's cycle skipping
// (DESIGN.md §11). Its NextEvent and SkipIdle walk the decouple window
// with visible, the walk issue takes (the window is clamped to at least
// 1 once, in New), and ask Uop.ReadyCycle and queueRoom as issue and
// fetch do.
package lane
