// Package netfault is a chaos proxy for the tests of the fleet's failure
// handling (internal/serve's TestChaosSweepFleet, cmd/vltd's
// TestChaosSweep); no command links it. It is a TCP forwarder that
// injects faults between a vltclient and a vltd peer with per-rule
// probabilities. Five faults cover the
// failure modes the client stack claims to survive:
//
//   - drop: the connection closes the moment it is accepted (connect
//     works, the request goes nowhere) — exercises retry;
//   - delay: the whole exchange is stalled first — exercises deadlines;
//   - inject: a canned 503 + Retry-After envelope is returned without
//     touching the upstream — exercises typed-error retry and backoff;
//   - reset: the response is cut off with a TCP RST mid-body —
//     exercises mid-read transport errors;
//   - truncate: the response stops after N bytes and the connection
//     closes cleanly — exercises body-length and NDJSON-trailer checks.
//
// Fault decisions come from one seeded rand.Rand (never the process
// global), drawn once per accepted connection in a fixed rule order, so
// a given seed yields a reproducible fault schedule per connection
// sequence. Clients should disable HTTP keep-alives when testing so
// one connection carries one request and per-connection faults read as
// per-request faults. Every decision is counted in a stats.Registry.
package netfault
