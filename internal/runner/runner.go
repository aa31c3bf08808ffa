package runner

import (
	"fmt"
	"runtime"
	"sync"
)

// Task is the future for one started job.
type Task[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Wait blocks until the job has executed and returns its result.
func (t *Task[V]) Wait() (V, error) {
	<-t.done
	return t.val, t.err
}

// Done reports, without blocking, whether the job has executed.
func (t *Task[V]) Done() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// Slots is a counting semaphore: the execution bound every simulation in
// the repo runs under. A process that shares one Slots across callers
// (vltd shares one across all its endpoints) runs at most Width jobs at
// once, however many callers submit. The zero value is not usable; call
// NewSlots.
type Slots struct {
	sem chan struct{}
}

// NewSlots returns width slots; width <= 0 selects runtime.GOMAXPROCS(0).
func NewSlots(width int) *Slots {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	return &Slots{sem: make(chan struct{}, width)}
}

// Width returns the number of slots.
func (s *Slots) Width() int { return cap(s.sem) }

// Do waits for a free slot, runs fn holding it, and releases it, even
// if fn panics.
func (s *Slots) Do(fn func()) {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	fn()
}

// Start runs fn on its own goroutine holding one of slots and returns its
// Task at once. The job waits for a free slot whether or not anyone
// Waits. A panicking fn fails only its own Task, with a *PanicError named
// by key.
func Start[V any](slots *Slots, key string, fn func() (V, error)) *Task[V] {
	return Go(key, func() (v V, err error) {
		slots.Do(func() { v, err = fn() })
		return v, err
	})
}

// Go is Start without a slot: for a job that only coordinates work
// bounded elsewhere (an experiment engine's cell waiting on vltd's
// admission path, whose simulation takes its own slot).
func Go[V any](key string, fn func() (V, error)) *Task[V] {
	t := &Task[V]{done: make(chan struct{})}
	go func() {
		defer close(t.done)
		t.val, t.err = Guard(key, fn)
	}()
	return t
}

// Parallel runs every function concurrently and returns their errors
// indexed by position. It exists so callers outside this package never
// spawn goroutines themselves: the determinism lint (internal/lint)
// confines goroutine creation to this one audited package. Each
// function writes only its own error slot, so the result is
// deterministic regardless of completion order; panics are isolated
// per function and surface as *PanicError values.
func Parallel(fns ...func() error) []error {
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	for i, fn := range fns {
		wg.Add(1)
		go func(i int, fn func() error) {
			defer wg.Done()
			_, errs[i] = Guard(fmt.Sprintf("parallel[%d]", i), func() (struct{}, error) {
				return struct{}{}, fn()
			})
		}(i, fn)
	}
	wg.Wait()
	return errs
}
