// Package fleet shards simulation cells across a set of vltd peers. A
// serve.Server installs a Coordinator (SetFleet) to compute its
// /v1/sweep cells: each cell's content-addressed key (vlt.CellKey)
// hashes to one owner among {local node, peers}, so every node given
// the same peer list routes the same cell the same way and a sweep's
// work spreads without any shared state.
//
// The coordinator is built to degrade, never to fail: a cell whose
// owning peer's call fails is recomputed locally through the caller's
// fallback closure — the same render path a single node uses, so the
// response body is byte-identical whether the cell came from a peer,
// the local engine, or a fallback. Losing peers costs throughput, not
// answers.
//
// A peer's body is the one input a node takes from outside the
// program, so Compute checks it once, where it enters: it must be in
// api.Marshal's canonical form, compact JSON that re-encodes to itself
// as a json.RawMessage, plus one trailing newline. A body that fails is
// handled as a failed peer call: the cell falls back to the local
// render and counts under fleet.fallback, and the peer's bytes are
// never cached, served or spliced into a sweep line.
//
// A peer's health is judged in one place: its vltclient circuit
// breaker. The coordinator asks nothing else before routing a cell; an
// open breaker fails the call fast with vltclient.ErrCircuitOpen and
// the cell falls back like any other peer error. A peer call gets half
// of the caller's remaining deadline, so a peer that accepts
// connections but never answers costs that half and a breaker failure,
// never the whole deadline. Routing decisions are
// visible in the stats registry (fleet.local / fleet.remote /
// fleet.fallback, plus per-peer client scopes).
package fleet
