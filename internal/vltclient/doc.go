// Package vltclient is the typed HTTP client for a vltd peer: one code
// path shared by end users (cmd/vltsweep), tests, and the fleet
// coordinator (internal/fleet), so every caller gets the same failure
// handling. A Client wraps the wire schema of internal/api with three
// robustness layers, all applied by one loop that RunBody and Sweep
// share:
//
//   - deadline propagation: the remaining context deadline rides to the
//     server as timeout_ms, so the server abandons waits the client has
//     already given up on;
//   - bounded retries: transient failures (network errors, 5xx, 429)
//     retry with capped exponential backoff plus seeded jitter, honoring
//     Retry-After on 429/503; typed 4xx envelopes and simulation_failed
//     never retry, and a sweep never retries once a cell line arrived;
//   - a per-peer circuit breaker (closed / open / half-open): after a run
//     of consecutive failed calls the breaker opens and calls fail fast
//     with ErrCircuitOpen instead of eating the retry budget on a dead
//     peer; a cooldown later, one half-open call decides whether to
//     close it. A typed answer that is not transient (4xx,
//     simulation_failed) comes from a live peer and counts as a success.
//
// The breaker is the peer's only health verdict: the fleet coordinator
// asks nothing else before routing a cell. All breaker state and
// traffic counters register in a stats.Registry scope, so a fleet's
// retries, trips and fast-fails are visible in the coordinator node's
// /metricsz.
package vltclient
