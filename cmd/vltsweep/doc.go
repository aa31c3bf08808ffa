// Command vltsweep runs a workload x machine x scale grid against a
// vltd daemon (or a fleet coordinator node) over POST /v1/sweep and
// renders the NDJSON stream as it arrives: one line per cell, then a
// summary from the stream's trailer. The underlying client retries
// transient failures with backoff (-retries times after the first
// attempt; 0 = never), honors Retry-After, and detects a
// truncated stream by the missing trailer — a partial sweep exits
// nonzero instead of passing silently.
//
// Usage:
//
//	vltsweep -workloads mxm,mpenc -machines base,V4-CMT [flags]
//
// Cells that fail simulation occupy their line with the server's typed
// error and do not stop the sweep; vltsweep exits 1 if any cell erred
// (or 2 on usage/transport failures).
package main
