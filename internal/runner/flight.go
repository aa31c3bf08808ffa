package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// This file is the serving-side front-end: a Flight forgets a key the
// moment its execution completes. The caller layers its own bounded
// cache on top — the serve package keys an LRU of rendered responses by
// cell fingerprint — and the Flight's job is only to guarantee that
// identical concurrent requests collapse onto one execution and that the
// number of distinct keys in flight stays bounded. How many of those
// executions simulate at once is the caller's Slots' business.

// FlightStats counts a flight group's traffic.
type FlightStats struct {
	// Submitted is the total number of Submit and TrySubmit calls.
	Submitted int
	// Coalesced is the number of calls that joined an execution already
	// in flight under the same key.
	Coalesced int
	// Executed is the number of executions actually started.
	Executed int
	// Rejected is the number of TrySubmit calls refused because the
	// group was at its pending bound.
	Rejected int
}

// Flight is a single-flight group with an admission bound: concurrent
// submissions of one key share a single execution, and at most
// maxPending distinct keys may be in flight at once. A completed key is
// forgotten immediately: a later submission of the same key runs again.
// The zero value is not usable; call NewFlight.
type Flight[K comparable, V any] struct {
	maxPending int

	mu       sync.Mutex
	inflight map[K]*Task[V]
	freed    chan struct{} // closed (and replaced) whenever a key completes
	stats    FlightStats
}

// NewFlight returns a flight group admitting at most maxPending distinct
// keys in flight; maxPending <= 0 selects 4x runtime.GOMAXPROCS(0).
func NewFlight[K comparable, V any](maxPending int) *Flight[K, V] {
	if maxPending <= 0 {
		maxPending = 4 * runtime.GOMAXPROCS(0)
	}
	return &Flight[K, V]{
		maxPending: maxPending,
		inflight:   make(map[K]*Task[V]),
		freed:      make(chan struct{}),
	}
}

// Inflight returns the number of distinct keys currently in flight.
func (f *Flight[K, V]) Inflight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.inflight)
}

// Stats returns a snapshot of the group's submission counters.
func (f *Flight[K, V]) Stats() FlightStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// TrySubmit starts fn under key, or joins the key's in-flight execution
// if there is one. It returns the key's Task, whether this call started
// the execution (leader), and whether the submission was admitted at
// all: ok is false only when the key was new and the group already had
// maxPending keys in flight — the caller should shed the request (the
// serve layer answers 429). Joining an existing key always succeeds
// regardless of the bound. A panicking fn fails only its own Task, as a
// *PanicError carrying the key and stack.
func (f *Flight[K, V]) TrySubmit(key K, fn func() (V, error)) (t *Task[V], leader, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Submitted++
	if t, leader, ok = f.admit(key, fn); !ok {
		f.stats.Rejected++
	}
	return t, leader, ok
}

// Submit is TrySubmit that waits at the pending bound instead of
// refusing: it blocks until the key joins an execution in flight or a
// completing key frees room for a new one, and returns ctx.Err() if ctx
// is done first.
func (f *Flight[K, V]) Submit(ctx context.Context, key K, fn func() (V, error)) (t *Task[V], leader bool, err error) {
	f.mu.Lock()
	f.stats.Submitted++
	for {
		if t, leader, ok := f.admit(key, fn); ok {
			f.mu.Unlock()
			return t, leader, nil
		}
		freed := f.freed
		f.mu.Unlock()
		select {
		case <-freed:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		f.mu.Lock()
	}
}

// admit joins key's execution in flight, or starts fn under key if the
// group is below its pending bound; ok is false when it did neither
// (callers hold the lock).
//
//vltlint:heldby mu
func (f *Flight[K, V]) admit(key K, fn func() (V, error)) (t *Task[V], leader, ok bool) {
	if t, ok := f.inflight[key]; ok {
		f.stats.Coalesced++
		return t, false, true
	}
	if len(f.inflight) >= f.maxPending {
		return nil, false, false
	}
	t = &Task[V]{done: make(chan struct{})}
	f.inflight[key] = t
	f.stats.Executed++
	go f.run(key, t, fn)
	return t, true, true
}

// run executes one admitted key and retires it.
func (f *Flight[K, V]) run(key K, t *Task[V], fn func() (V, error)) {
	t.val, t.err = Guard(fmt.Sprint(key), fn)
	// Forget the key before releasing waiters, so a submit that observes
	// the completed Task can never race a fresh execution of the same key
	// onto a second Task while this one lingers.
	f.mu.Lock()
	delete(f.inflight, key)
	close(f.freed)
	f.freed = make(chan struct{})
	f.mu.Unlock()
	close(t.done)
}

// WaitContext blocks until the job has executed or the context is done,
// whichever comes first, and returns the job's result or ctx.Err(). An
// abandoned job keeps executing — its result still lands in the Task
// for any other waiter (and, in the serve layer, in the response
// cache).
func (t *Task[V]) WaitContext(ctx context.Context) (V, error) {
	select {
	case <-t.done:
		return t.val, t.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}
