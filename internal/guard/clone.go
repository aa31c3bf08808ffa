package guard

// This file implements deep copying of the guard state for machine
// forking (core.Machine.Fork): the watchdog's stall window position and
// the retired-instruction ring must carry over so a forked machine
// trips (or doesn't trip) the forward-progress guard at exactly the
// same cycle as its parent.

// Clone returns a copy of the watchdog with its stall-window position
// preserved.
func (w *Watchdog) Clone() *Watchdog {
	c := *w
	return &c
}

// Clone returns a deep copy of the ring.
func (r *Ring) Clone() *Ring {
	return &Ring{
		buf:  append([]Retired(nil), r.buf...),
		next: r.next,
		full: r.full,
	}
}
