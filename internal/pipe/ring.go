package pipe

// Ring is a fixed-capacity FIFO of uops for the pipeline queues that
// push at the back and pop from the front (reorder buffers, fetch
// queues, vector instruction queues). Its array is allocated once and
// never grows. The logical caps are checked where entries are pushed;
// pushing into a full ring panics.
type Ring struct {
	buf  []*Uop
	head int // index of the front entry in buf
	n    int // entries in use
}

// NewRing returns an empty ring holding at most capacity uops.
func NewRing(capacity int) Ring { return Ring{buf: make([]*Uop, capacity)} }

// Len returns the number of queued uops.
func (r *Ring) Len() int { return r.n }

// At returns the i-th queued uop, 0 being the front (the oldest).
func (r *Ring) At(i int) *Uop {
	if i < 0 || i >= r.n {
		panic("pipe: ring index out of range")
	}
	return r.buf[r.slot(i)]
}

// Front returns the oldest queued uop, or nil when the ring is empty
// (every slot of an empty ring is nil: Pop clears the slots it vacates).
func (r *Ring) Front() *Uop { return r.buf[r.head] }

// Push appends u at the back.
func (r *Ring) Push(u *Uop) {
	if r.n == len(r.buf) {
		panic("pipe: push into a full ring")
	}
	r.buf[r.slot(r.n)] = u
	r.n++
}

// Pop removes and returns the front uop, clearing its slot so the ring
// never pins a uop it no longer holds.
func (r *Ring) Pop() *Uop {
	if r.n == 0 {
		panic("pipe: pop from an empty ring")
	}
	u := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = r.slot(1)
	r.n--
	return u
}

// Clone returns a ring of the same capacity holding the uops mapped
// through cl, rebased so the front sits at offset 0.
func (r *Ring) Clone(cl *Cloner) Ring {
	n := NewRing(len(r.buf))
	for i := range r.n {
		n.buf[i] = cl.Uop(r.At(i))
	}
	n.n = r.n
	return n
}

// slot maps queue position i (0 = front) to its index in buf.
func (r *Ring) slot(i int) int {
	if s := r.head + i; s < len(r.buf) {
		return s
	}
	return r.head + i - len(r.buf)
}
