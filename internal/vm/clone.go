package vm

// This file implements deep copying of the functional machine for
// machine forking (core.Machine.Fork). Ownership rules: the loaded
// program (Prog, and the code slice aliasing Prog.Code) is immutable
// after assembly and is shared between parent and clone; everything a
// running thread can write — the memory image, the thread contexts, the
// operation census — is copied.

// Clone returns a deep copy of the memory image. The one-entry page
// lookup cache is reset rather than rebased; it refills on first access
// and has no observable effect beyond lookup speed.
func (m *Memory) Clone() *Memory {
	n := &Memory{pages: make(map[uint64]*page, len(m.pages))}
	for idx, p := range m.pages { //vltlint:ignore map-range — order-independent copy
		cp := *p
		n.pages[idx] = &cp
	}
	return n
}

// Clone returns a deep copy of the functional machine: the program is
// shared (immutable after assembly), memory, thread contexts and the
// operation census are copied. In-flight Dyn records live in the
// pipeline's uop slots and fork with them (pipe.Arena.Clone).
func (v *VM) Clone() *VM {
	n := &VM{
		Prog:       v.Prog,
		Mem:        v.Mem.Clone(),
		Partitions: v.Partitions,
		Stats:      v.Stats, // counters and a value array only
		threads:    make([]*Thread, len(v.threads)),
		code:       v.code,
	}
	for i, t := range v.threads {
		tc := *t // Thread holds only scalars and value arrays
		n.threads[i] = &tc
	}
	return n
}
