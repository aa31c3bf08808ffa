// Package mem implements the timing model of the on-chip memory system:
// set-associative caches with LRU replacement, a multi-banked shared L2
// with bank-conflict queuing for vector element accesses, and the L1
// caches of the scalar units and lane cores. Tag arrays are pooled:
// Cache.Release hands them to the next cache of the same size.
//
// The functional simulator (internal/vm) owns data values; this package
// models latency only. Latencies follow the paper's Table 3: L2 hit 10
// cycles, L2 miss 100 cycles, 16 banks, 4 MB, 4-way associative.
package mem
