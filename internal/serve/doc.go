// Package serve is the daemon layer behind cmd/vltd: a long-lived HTTP
// front end that turns the one-shot simulation stack (vlt.Run, the
// experiment drivers of the root package) into shared, queryable
// infrastructure. Server wires six JSON endpoints — /v1/run for one
// workload x machine cell, /v1/experiment for a figure or table by
// name, /v1/workloads and /v1/machines for discovery, /healthz and
// /metricsz for operations — over three serving mechanisms: a
// content-addressed response cache (rendered bodies keyed by
// vlt.CellKey, LRU under a byte budget, so a hit is byte-identical to
// the cold response it replays), single-flight coalescing with bounded
// admission (runner.Flight; overload sheds with 429 + Retry-After),
// and per-request wait deadlines that abandon the wait but never the
// simulation. An experiment's cells take the same path as /v1/run
// cells (vlt.NewEngineFrom over the server's cell source), so a figure
// is a fan-out over cached cells. Requests are statically verified
// (vlt.VetCell, i.e. asm.Program.Vet) before admission, failures
// surface as typed JSON errors carrying report.Diagnose text, and all
// serving counters live in an internal/stats registry snapshotted by
// /metricsz. This layer
// serves the ROADMAP's production north star rather than a section of
// the paper; DESIGN.md section 10 records the policies.
package serve
