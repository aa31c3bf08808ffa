package vm

import (
	"fmt"
	"math"

	"vlt/internal/asm"
	"vlt/internal/isa"
	"vlt/internal/stats"
)

// Thread is the architectural state of one hardware thread context.
type Thread struct {
	ID     int
	PC     int
	Halted bool

	IntRegs [isa.NumIntRegs]uint64
	FPRegs  [isa.NumFPRegs]float64
	VecRegs [isa.NumVecRegs][isa.MaxVL]uint64
	VL      int

	// Region is the most recent MARK id executed by this thread
	// (0 = serial code).
	Region int64

	seq int64
}

// Dyn describes one dynamically executed instruction: everything a timing
// model needs to know about it.
type Dyn struct {
	Thread int
	Seq    int64 // per-thread dynamic instruction number, from 0
	PC     int
	Inst   *isa.Instruction

	// Control flow.
	Branch bool
	Taken  bool
	NextPC int // architecturally correct next PC

	// Vector state at execution.
	VL int

	// Effective byte addresses touched (1 entry for scalar memory ops,
	// VL entries for vector memory ops, nil otherwise).
	EffAddrs []uint64

	// System events.
	IsBarrier bool
	IsHalt    bool
	MarkID    int64 // valid when Inst.Op == OpMark
	VltCfg    int   // requested partition count when Inst.Op == OpVltCfg, else 0

	Region int64 // region the instruction executed in
}

// OpStats accumulates the operation counts behind the paper's Table 4.
// A scalar instruction is one operation; a vector instruction of length VL
// is VL operations.
type OpStats struct {
	ScalarInstrs int64
	VecInstrs    int64
	VecElemOps   int64
	VLHist       [isa.MaxVL + 1]int64
}

// RegisterMetrics registers the operation census on r (scoped to
// "vm.ops" by the machine model): raw counts, the Table-4 derived
// ratios, and the vector-length histogram (one entry per non-zero VL).
func (s *OpStats) RegisterMetrics(r *stats.Registry) {
	r.CounterFn("scalar_instrs", func() uint64 { return uint64(s.ScalarInstrs) })
	r.CounterFn("vec_instrs", func() uint64 { return uint64(s.VecInstrs) })
	r.CounterFn("vec_elem_ops", func() uint64 { return uint64(s.VecElemOps) })
	r.Gauge("pct_vect", s.PercentVect)
	r.Gauge("avg_vl", s.AvgVL)
	r.Histogram("vl_hist", func() []int64 { return s.VLHist[:] })
}

// PercentVect returns the percentage of all operations that are vector
// element operations ("% Vect" in Table 4).
func (s *OpStats) PercentVect() float64 {
	total := float64(s.ScalarInstrs + s.VecElemOps)
	if total == 0 {
		return 0
	}
	return 100 * float64(s.VecElemOps) / total
}

// AvgVL returns the average vector length over vector instructions,
// weighted by operations as in the paper ("Avg VL").
func (s *OpStats) AvgVL() float64 {
	if s.VecInstrs == 0 {
		return 0
	}
	return float64(s.VecElemOps) / float64(s.VecInstrs)
}

// CommonVLs returns the k most frequent vector lengths, most frequent
// first (ties broken toward longer vectors).
func (s *OpStats) CommonVLs(k int) []int {
	type hv struct {
		vl    int
		count int64
	}
	var all []hv
	for vl, c := range s.VLHist {
		if c > 0 && vl > 0 {
			all = append(all, hv{vl, c})
		}
	}
	for i := 1; i < len(all); i++ { // insertion sort: tiny input
		for j := i; j > 0; j-- {
			a, b := all[j-1], all[j]
			if b.count > a.count || (b.count == a.count && b.vl > a.vl) {
				all[j-1], all[j] = b, a
			} else {
				break
			}
		}
	}
	if len(all) > k {
		all = all[:k]
	}
	out := make([]int, len(all))
	for i, h := range all {
		out[i] = h.vl
	}
	return out
}

// VM executes one SPMD program with a fixed number of threads over a
// shared memory image.
type VM struct {
	Prog *asm.Program
	Mem  *Memory

	// Partitions is the current number of vector-lane partitions (set by
	// VLTCFG; 1 means a single thread owns the whole register file). The
	// maximum vector length of SETVL is isa.MaxVL / Partitions, rounded
	// down, mirroring the paper's splitting of the per-lane register file
	// across threads. VLTCFG accepts any count from 1 to isa.MaxVL; which
	// counts a machine's lanes can be split into is the timing model's
	// rule (vcl.CheckPartitions).
	Partitions int

	Stats OpStats

	threads []*Thread
	code    []isa.Instruction
}

// New loads the program image and creates numThreads thread contexts. The
// functional register conventions are established here: RegTID and RegNTH
// are preset, everything else is zero.
func New(prog *asm.Program, numThreads int) (*VM, error) {
	if numThreads < 1 {
		return nil, fmt.Errorf("vm: thread count %d < 1", numThreads)
	}
	mem := NewMemory()
	for _, seg := range prog.Segments {
		if err := mem.WriteWords(seg.Addr, seg.Words); err != nil {
			return nil, fmt.Errorf("vm: loading segment at %#x: %w", seg.Addr, err)
		}
	}
	v := &VM{
		Prog:       prog,
		Mem:        mem,
		Partitions: 1,
		threads:    make([]*Thread, numThreads),
		code:       prog.Code,
	}
	for i := range v.threads {
		t := &Thread{ID: i}
		t.IntRegs[asm.RegTID.Index()] = uint64(i)
		t.IntRegs[asm.RegNTH.Index()] = uint64(numThreads)
		v.threads[i] = t
	}
	return v, nil
}

// Thread returns the architectural state of thread tid.
func (v *VM) Thread(tid int) *Thread { return v.threads[tid] }

// MaxVL returns the current maximum vector length given the lane
// partitioning, rounded down (21 at 3 partitions).
func (v *VM) MaxVL() int { return isa.MaxVL / v.Partitions }

func (v *VM) fault(t *Thread, format string, args ...any) error {
	return &FaultError{
		Thread: t.ID,
		PC:     t.PC,
		Inst:   v.code[t.PC].String(),
		Msg:    fmt.Sprintf(format, args...),
	}
}

func (t *Thread) getInt(r isa.Reg) uint64 {
	if r.Index() == 0 {
		return 0
	}
	return t.IntRegs[r.Index()]
}

func (t *Thread) setInt(r isa.Reg, val uint64) {
	if r.Index() != 0 {
		t.IntRegs[r.Index()] = val
	}
}

// Step executes one instruction on thread tid and reports what happened
// in a fresh record. Calling Step on a halted thread is an error (the
// timing model must not fetch past HALT).
func (v *VM) Step(tid int) (*Dyn, error) {
	d := new(Dyn)
	if err := v.StepReusing(tid, d); err != nil {
		return nil, err
	}
	return d, nil
}

// StepReusing is Step into a caller-owned record: d is fully reset and
// rewritten, keeping its EffAddrs buffer, so a pipeline that steps into
// its recycled uop slots allocates no Dyn records and no address
// slices at all.
func (v *VM) StepReusing(tid int, d *Dyn) error {
	t := v.threads[tid]
	if t.Halted {
		return fmt.Errorf("vm: thread %d stepped after halt", tid)
	}
	if t.PC < 0 || t.PC >= len(v.code) {
		return fmt.Errorf("vm: thread %d pc %d out of range", tid, t.PC)
	}
	in := &v.code[t.PC]
	*d = Dyn{EffAddrs: d.EffAddrs[:0]}
	d.Thread = tid
	d.Seq = t.seq
	d.PC = t.PC
	d.Inst = in
	d.NextPC = t.PC + 1
	d.Region = t.Region
	t.seq++

	info := in.Op.Info()
	if info.Vector {
		d.VL = t.VL
		v.Stats.VecInstrs++
		v.Stats.VecElemOps += int64(t.VL)
		v.Stats.VLHist[t.VL]++
	} else {
		v.Stats.ScalarInstrs++
	}

	if err := v.exec(t, in, d); err != nil {
		return err
	}
	t.PC = d.NextPC
	return nil
}

func (v *VM) exec(t *Thread, in *isa.Instruction, d *Dyn) error {
	switch in.Op {
	// ---- scalar integer ----
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem, isa.OpAnd,
		isa.OpOr, isa.OpXor, isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpSlt,
		isa.OpSltu, isa.OpSeq:
		a := t.getInt(in.Ra)
		var b uint64
		if in.HasImm {
			b = uint64(in.Imm)
		} else {
			b = t.getInt(in.Rb)
		}
		res, err := intALU(in.Op, a, b)
		if err != nil {
			return v.fault(t, "%v", err)
		}
		t.setInt(in.Rd, res)

	case isa.OpMovI:
		t.setInt(in.Rd, uint64(in.Imm))
	case isa.OpMov:
		t.setInt(in.Rd, t.getInt(in.Ra))

	// ---- scalar floating point ----
	case isa.OpFAdd:
		t.FPRegs[in.Rd.Index()] = t.FPRegs[in.Ra.Index()] + t.FPRegs[in.Rb.Index()]
	case isa.OpFSub:
		t.FPRegs[in.Rd.Index()] = t.FPRegs[in.Ra.Index()] - t.FPRegs[in.Rb.Index()]
	case isa.OpFMul:
		t.FPRegs[in.Rd.Index()] = t.FPRegs[in.Ra.Index()] * t.FPRegs[in.Rb.Index()]
	case isa.OpFDiv:
		t.FPRegs[in.Rd.Index()] = t.FPRegs[in.Ra.Index()] / t.FPRegs[in.Rb.Index()]
	case isa.OpFSqrt:
		t.FPRegs[in.Rd.Index()] = math.Sqrt(t.FPRegs[in.Ra.Index()])
	case isa.OpFNeg:
		t.FPRegs[in.Rd.Index()] = -t.FPRegs[in.Ra.Index()]
	case isa.OpFAbs:
		t.FPRegs[in.Rd.Index()] = math.Abs(t.FPRegs[in.Ra.Index()])
	case isa.OpFMin:
		t.FPRegs[in.Rd.Index()] = math.Min(t.FPRegs[in.Ra.Index()], t.FPRegs[in.Rb.Index()])
	case isa.OpFMax:
		t.FPRegs[in.Rd.Index()] = math.Max(t.FPRegs[in.Ra.Index()], t.FPRegs[in.Rb.Index()])
	case isa.OpFMov:
		t.FPRegs[in.Rd.Index()] = t.FPRegs[in.Ra.Index()]
	case isa.OpFMovI:
		t.FPRegs[in.Rd.Index()] = math.Float64frombits(uint64(in.Imm))
	case isa.OpCvtIF:
		t.FPRegs[in.Rd.Index()] = float64(int64(t.getInt(in.Ra)))
	case isa.OpCvtFI:
		t.setInt(in.Rd, uint64(int64(t.FPRegs[in.Ra.Index()])))
	case isa.OpFLt:
		t.setInt(in.Rd, b2u(t.FPRegs[in.Ra.Index()] < t.FPRegs[in.Rb.Index()]))
	case isa.OpFLe:
		t.setInt(in.Rd, b2u(t.FPRegs[in.Ra.Index()] <= t.FPRegs[in.Rb.Index()]))
	case isa.OpFEq:
		t.setInt(in.Rd, b2u(t.FPRegs[in.Ra.Index()] == t.FPRegs[in.Rb.Index()]))

	// ---- control flow ----
	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu:
		a, b := t.getInt(in.Ra), t.getInt(in.Rb)
		var taken bool
		switch in.Op {
		case isa.OpBeq:
			taken = a == b
		case isa.OpBne:
			taken = a != b
		case isa.OpBlt:
			taken = int64(a) < int64(b)
		case isa.OpBge:
			taken = int64(a) >= int64(b)
		case isa.OpBltu:
			taken = a < b
		}
		d.Branch = true
		d.Taken = taken
		if taken {
			d.NextPC = int(in.Imm)
		}
	case isa.OpJ:
		d.Branch, d.Taken = true, true
		d.NextPC = int(in.Imm)
	case isa.OpJal:
		d.Branch, d.Taken = true, true
		t.setInt(in.Rd, uint64(t.PC+1))
		d.NextPC = int(in.Imm)
	case isa.OpJr:
		d.Branch, d.Taken = true, true
		d.NextPC = int(t.getInt(in.Ra))

	// ---- scalar memory ----
	case isa.OpLd:
		addr := t.getInt(in.Ra) + uint64(in.Imm)
		val, err := v.Mem.ReadWord(addr)
		if err != nil {
			return v.fault(t, "%v", err)
		}
		t.setInt(in.Rd, val)
		d.EffAddrs = append(d.EffAddrs, addr)
	case isa.OpFLd:
		addr := t.getInt(in.Ra) + uint64(in.Imm)
		val, err := v.Mem.ReadWord(addr)
		if err != nil {
			return v.fault(t, "%v", err)
		}
		t.FPRegs[in.Rd.Index()] = math.Float64frombits(val)
		d.EffAddrs = append(d.EffAddrs, addr)
	case isa.OpSt:
		addr := t.getInt(in.Ra) + uint64(in.Imm)
		if err := v.Mem.WriteWord(addr, t.getInt(in.Rd)); err != nil {
			return v.fault(t, "%v", err)
		}
		d.EffAddrs = append(d.EffAddrs, addr)
	case isa.OpFSt:
		addr := t.getInt(in.Ra) + uint64(in.Imm)
		if err := v.Mem.WriteWord(addr, math.Float64bits(t.FPRegs[in.Rd.Index()])); err != nil {
			return v.fault(t, "%v", err)
		}
		d.EffAddrs = append(d.EffAddrs, addr)

	// ---- system ----
	case isa.OpNop:
	case isa.OpHalt:
		t.Halted = true
		d.IsHalt = true
	case isa.OpBar:
		d.IsBarrier = true
	case isa.OpMark:
		t.Region = in.Imm
		d.MarkID = in.Imm
		d.Region = in.Imm
	case isa.OpVltCfg:
		n := int(in.Imm)
		if n < 1 || n > isa.MaxVL {
			return v.fault(t, "invalid partition count %d", n)
		}
		v.Partitions = n
		d.VltCfg = n

	// ---- vector ----
	case isa.OpSetVL:
		req := t.getInt(in.Ra)
		maxVL := uint64(v.MaxVL())
		vl := req
		if vl > maxVL {
			vl = maxVL
		}
		t.VL = int(vl)
		t.setInt(in.Rd, vl)

	default:
		return v.execVector(t, in, d)
	}
	return nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func intALU(op isa.Op, a, b uint64) (uint64, error) {
	switch op {
	case isa.OpAdd:
		return a + b, nil
	case isa.OpSub:
		return a - b, nil
	case isa.OpMul:
		return uint64(int64(a) * int64(b)), nil
	case isa.OpDiv:
		if b == 0 {
			return 0, fmt.Errorf("integer divide by zero")
		}
		return uint64(int64(a) / int64(b)), nil
	case isa.OpRem:
		if b == 0 {
			return 0, fmt.Errorf("integer remainder by zero")
		}
		return uint64(int64(a) % int64(b)), nil
	case isa.OpAnd:
		return a & b, nil
	case isa.OpOr:
		return a | b, nil
	case isa.OpXor:
		return a ^ b, nil
	case isa.OpSll:
		return a << (b & 63), nil
	case isa.OpSrl:
		return a >> (b & 63), nil
	case isa.OpSra:
		return uint64(int64(a) >> (b & 63)), nil
	case isa.OpSlt:
		return b2u(int64(a) < int64(b)), nil
	case isa.OpSltu:
		return b2u(a < b), nil
	case isa.OpSeq:
		return b2u(a == b), nil
	}
	return 0, fmt.Errorf("intALU: bad op %v", op)
}
