package runner

import "sync"

// Group is the dynamic sibling of Parallel: a set of goroutines that
// grows while the owner runs (one per accepted connection, one per
// background loop) and is joined once at shutdown. It exists for the
// same reason Parallel does — the determinism lint confines goroutine
// creation to this one audited package — but serves long-lived daemons
// whose concurrency degree is not known up front. Panics are isolated
// per job exactly as in Start and Parallel: a panicking job records a
// *PanicError and the group keeps running.
//
// The zero value is ready to use. Go after Wait is allowed (Wait joins
// the jobs started before it; a server may drain in phases).
type Group struct {
	wg sync.WaitGroup

	mu   sync.Mutex
	errs []error
}

// Go starts fn on its own goroutine. key names the job in a captured
// panic's *PanicError.
func (g *Group) Go(key string, fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		_, err := Guard(key, func() (struct{}, error) {
			return struct{}{}, fn()
		})
		if err != nil {
			g.mu.Lock()
			g.errs = append(g.errs, err)
			g.mu.Unlock()
		}
	}()
}

// Wait blocks until every job started so far has returned, then reports
// the errors they recorded (including guarded panics), oldest first.
// The error list is cumulative across Wait calls.
func (g *Group) Wait() []error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]error(nil), g.errs...)
}
