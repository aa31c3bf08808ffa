// Command vltd is the caching simulation service daemon: a long-lived
// HTTP server over the vlt simulation and experiment stack
// (internal/serve). Identical concurrent requests coalesce onto one
// simulation, results are cached content-addressed under a byte budget,
// overload is shed with 429 + Retry-After, and SIGINT/SIGTERM drain
// in-flight simulations before exit.
//
// Usage:
//
//	vltd [-addr 127.0.0.1:8317] [-jobs N] [-pending N] [-cache-bytes N]
//	     [-timeout D] [-drain D] [-peers URL,URL,...]
//
// With -peers, sweep cells shard across the fleet by cell key: each
// cell is computed on its owning node and unreachable peers degrade to
// local recomputation (see internal/fleet).
//
// Endpoints:
//
//	GET  /v1/run?workload=mxm&machine=base  one cell, full metric registry
//	POST /v1/sweep                          a grid of cells, streamed as NDJSON
//	GET  /v1/experiment?name=figure6        a vlt.Experiments entry by name
//	GET  /v1/workloads                      workload discovery
//	GET  /v1/machines                       machine discovery
//	GET  /healthz                           liveness (?ready=1 for readiness)
//	GET  /metricsz                          serving-layer metric registry
package main
