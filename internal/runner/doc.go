// Package runner is the one place the repo runs work concurrently. Its
// execution bound is Slots, a counting semaphore: every simulation holds
// one slot while it runs, so a process that shares one Slots runs at most
// Width simulations at once whoever submits them. Start runs one job on
// its own goroutine under a Slots and returns its Task, and the search
// driver (internal/search) runs its waves on them. Go is Start without
// a slot: the experiment engine in the root vlt package keys its Tasks
// in a per-engine memo, and its cell source takes a slot only around a
// simulation.
//
// Flight is the serving daemon's front-end (internal/serve): it
// coalesces concurrent submissions of the same key onto one execution,
// forgets the key on completion (the daemon layers its own bounded-byte
// LRU cache on top), and bounds how many distinct keys are in flight —
// TrySubmit sheds at that bound, Submit waits at it.
//
// Parallel and Group spawn the remaining goroutines (pipes, daemons);
// Guard turns a job's panic into a *PanicError.
package runner
