package runner

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestFlightCoalesce proves that concurrent submissions of one key
// share a single execution and all observe its result.
func TestFlightCoalesce(t *testing.T) {
	f := NewFlight[string, int](4)
	release := make(chan struct{})
	var execs int
	var mu sync.Mutex

	lead, leader, ok := f.TrySubmit("k", func() (int, error) {
		mu.Lock()
		execs++
		mu.Unlock()
		<-release
		return 42, nil
	})
	if !ok || !leader {
		t.Fatalf("first TrySubmit: leader=%v ok=%v, want true/true", leader, ok)
	}

	// Every joiner submits while the leader is still blocked on release,
	// so each must coalesce onto the leader's Task.
	const joiners = 8
	var submitted, wg sync.WaitGroup
	submitted.Add(joiners)
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tk, leader, ok := f.TrySubmit("k", func() (int, error) {
				t.Error("joiner fn executed; want coalesce")
				return 0, nil
			})
			submitted.Done()
			if !ok || leader {
				t.Errorf("joiner: leader=%v ok=%v, want false/true", leader, ok)
			}
			if tk != lead {
				t.Error("joiner got a different Task than the leader")
			}
			v, err := tk.Wait()
			if v != 42 || err != nil {
				t.Errorf("joiner Wait = %d, %v; want 42, nil", v, err)
			}
		}()
	}
	submitted.Wait()
	close(release)
	wg.Wait()

	if v, err := lead.Wait(); v != 42 || err != nil {
		t.Fatalf("leader Wait = %d, %v; want 42, nil", v, err)
	}
	if execs != 1 {
		t.Fatalf("executions = %d, want 1 (coalesced)", execs)
	}
	st := f.Stats()
	if st.Submitted != joiners+1 || st.Executed != 1 || st.Coalesced != joiners || st.Rejected != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFlightForgets proves a completed key re-executes on the next
// submission (no permanent memoization).
func TestFlightForgets(t *testing.T) {
	f := NewFlight[string, int](1)
	for want := 1; want <= 3; want++ {
		tk, leader, ok := f.TrySubmit("k", func() (int, error) { return want, nil })
		if !ok || !leader {
			t.Fatalf("round %d: leader=%v ok=%v", want, leader, ok)
		}
		if v, err := tk.Wait(); v != want || err != nil {
			t.Fatalf("round %d: Wait = %d, %v", want, v, err)
		}
		// Wait returns after the key is forgotten, so the next round
		// must start a fresh execution.
	}
	if st := f.Stats(); st.Executed != 3 || st.Coalesced != 0 {
		t.Fatalf("stats = %+v, want 3 executions, 0 coalesced", st)
	}
}

// TestFlightRejectsAtBound proves admission control: a new key beyond
// maxPending is refused while joining an in-flight key still succeeds.
func TestFlightRejectsAtBound(t *testing.T) {
	f := NewFlight[string, int](1)
	release := make(chan struct{})
	tk, _, ok := f.TrySubmit("busy", func() (int, error) {
		<-release
		return 1, nil
	})
	if !ok {
		t.Fatal("first submission refused")
	}

	if _, _, ok := f.TrySubmit("other", func() (int, error) { return 2, nil }); ok {
		t.Fatal("new key admitted beyond maxPending")
	}
	if _, leader, ok := f.TrySubmit("busy", func() (int, error) { return 3, nil }); !ok || leader {
		t.Fatalf("coalescing join at the bound: leader=%v ok=%v, want false/true", leader, ok)
	}
	if got := f.Inflight(); got != 1 {
		t.Fatalf("Inflight = %d, want 1", got)
	}

	close(release)
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	// With the flight drained the other key is admitted again.
	tk2, _, ok := f.TrySubmit("other", func() (int, error) { return 2, nil })
	if !ok {
		t.Fatal("key refused after drain")
	}
	if v, _ := tk2.Wait(); v != 2 {
		t.Fatalf("got %d, want 2", v)
	}
	if st := f.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
	}
}

// TestFlightSubmitWaitsAtBound proves the blocking admission path: at
// the pending bound Submit joins an in-flight key at once, waits for room
// for a new key, and gives up with ctx.Err() when cancelled first.
func TestFlightSubmitWaitsAtBound(t *testing.T) {
	f := NewFlight[string, int](1)
	release := make(chan struct{})
	busy, _, _ := f.TrySubmit("busy", func() (int, error) {
		<-release
		return 1, nil
	})

	if tk, leader, err := f.Submit(context.Background(), "busy", func() (int, error) { return 3, nil }); err != nil || leader || tk != busy {
		t.Fatalf("join at the bound: leader=%v err=%v same-task=%v", leader, err, tk == busy)
	}

	ctx, cancel := context.WithCancel(context.Background())
	waiting := make(chan error)
	go func() {
		_, _, err := f.Submit(ctx, "other", func() (int, error) { return 2, nil })
		waiting <- err
	}()
	cancel()
	if err := <-waiting; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Submit err = %v, want context.Canceled", err)
	}

	admitted := make(chan *Task[int])
	go func() {
		tk, leader, err := f.Submit(context.Background(), "other", func() (int, error) { return 2, nil })
		if err != nil || !leader {
			t.Errorf("Submit after room freed: leader=%v err=%v", leader, err)
		}
		admitted <- tk
	}()
	close(release)
	if v, err := (<-admitted).Wait(); v != 2 || err != nil {
		t.Fatalf("admitted Wait = %d, %v; want 2, nil", v, err)
	}
	if st := f.Stats(); st.Submitted != 4 || st.Coalesced != 1 || st.Executed != 2 || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want 4 submitted, 1 coalesced, 2 executed, 0 rejected", st)
	}
}

// TestFlightPanicIsolated proves a panicking job fails only its own
// Task, as a *PanicError, and the group keeps serving.
func TestFlightPanicIsolated(t *testing.T) {
	f := NewFlight[string, int](4)
	tk, _, _ := f.TrySubmit("boom", func() (int, error) { panic("kaboom") })
	_, err := tk.Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	tk2, _, _ := f.TrySubmit("fine", func() (int, error) { return 7, nil })
	if v, err := tk2.Wait(); v != 7 || err != nil {
		t.Fatalf("after panic: Wait = %d, %v; want 7, nil", v, err)
	}
}

// TestWaitContext proves a deadline abandons the wait, not the job: the
// execution completes and a later waiter still sees its value.
func TestWaitContext(t *testing.T) {
	f := NewFlight[string, int](2)
	release := make(chan struct{})
	tk, _, _ := f.TrySubmit("slow", func() (int, error) {
		<-release
		return 9, nil
	})

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := tk.WaitContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}

	close(release)
	if v, err := tk.WaitContext(context.Background()); v != 9 || err != nil {
		t.Fatalf("WaitContext after release = %d, %v; want 9, nil", v, err)
	}
}
