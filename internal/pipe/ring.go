package pipe

// Ring is a fixed-capacity FIFO of uop handles for the pipeline queues
// that push at the back and pop from the front (reorder buffers, fetch
// queues, vector instruction queues). Its array is allocated once and
// never grows. The logical caps are checked where entries are pushed;
// pushing into a full ring panics.
type Ring struct {
	buf  []UopID
	head int // index of the front entry in buf
	n    int // entries in use
}

// NewRing returns an empty ring holding at most capacity uops.
func NewRing(capacity int) Ring { return Ring{buf: make([]UopID, capacity)} }

// Len returns the number of queued uops.
func (r *Ring) Len() int { return r.n }

// At returns the i-th queued uop, 0 being the front (the oldest).
func (r *Ring) At(i int) UopID {
	if i < 0 || i >= r.n {
		panic("pipe: ring index out of range")
	}
	return r.buf[r.slot(i)]
}

// Front returns the oldest queued uop, or 0 when the ring is empty
// (every slot of an empty ring is 0: Pop clears the slots it vacates).
func (r *Ring) Front() UopID { return r.buf[r.head] }

// Push appends id at the back.
func (r *Ring) Push(id UopID) {
	if r.n == len(r.buf) {
		panic("pipe: push into a full ring")
	}
	r.buf[r.slot(r.n)] = id
	r.n++
}

// Pop removes and returns the front uop, clearing its slot.
func (r *Ring) Pop() UopID {
	if r.n == 0 {
		panic("pipe: pop from an empty ring")
	}
	id := r.buf[r.head]
	r.buf[r.head] = 0
	r.head = r.slot(1)
	r.n--
	return id
}

// Clone returns a copy of the ring with its own array: the same
// capacity, head, order and handles.
func (r *Ring) Clone() Ring {
	n := *r
	n.buf = CloneIDs(r.buf)
	return n
}

// slot maps queue position i (0 = front) to its index in buf.
func (r *Ring) slot(i int) int {
	if s := r.head + i; s < len(r.buf) {
		return s
	}
	return r.head + i - len(r.buf)
}
