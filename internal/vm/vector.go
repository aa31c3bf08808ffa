package vm

import (
	"math"

	"vlt/internal/isa"
)

// execVector executes the vector opcodes. Elements [0, VL) participate;
// elements at and above VL are left unchanged (they may hold stale values,
// as on real machines).
func (v *VM) execVector(t *Thread, in *isa.Instruction, d *Dyn) error {
	vl := t.VL
	switch in.Op {
	case isa.OpVAdd, isa.OpVSub, isa.OpVMul, isa.OpVAnd, isa.OpVOr,
		isa.OpVXor, isa.OpVSll, isa.OpVSrl, isa.OpVAbsDiff, isa.OpVMax,
		isa.OpVMin:
		va := &t.VecRegs[in.Ra.Index()]
		vd := &t.VecRegs[in.Rd.Index()]
		if in.BScalar {
			b := t.getInt(in.Rb)
			for i := 0; i < vl; i++ {
				vd[i] = vecIntOp(in.Op, va[i], b)
			}
		} else {
			vb := &t.VecRegs[in.Rb.Index()]
			for i := 0; i < vl; i++ {
				vd[i] = vecIntOp(in.Op, va[i], vb[i])
			}
		}

	case isa.OpVFAdd, isa.OpVFSub, isa.OpVFMul, isa.OpVFDiv:
		va := &t.VecRegs[in.Ra.Index()]
		vd := &t.VecRegs[in.Rd.Index()]
		if in.BScalar {
			b := t.FPRegs[in.Rb.Index()]
			for i := 0; i < vl; i++ {
				vd[i] = math.Float64bits(vecFPOp(in.Op, math.Float64frombits(va[i]), b))
			}
		} else {
			vb := &t.VecRegs[in.Rb.Index()]
			for i := 0; i < vl; i++ {
				vd[i] = math.Float64bits(vecFPOp(in.Op,
					math.Float64frombits(va[i]), math.Float64frombits(vb[i])))
			}
		}

	case isa.OpVFMA:
		va := &t.VecRegs[in.Ra.Index()]
		vc := &t.VecRegs[in.Rc.Index()]
		vd := &t.VecRegs[in.Rd.Index()]
		if in.BScalar {
			b := t.FPRegs[in.Rb.Index()]
			for i := 0; i < vl; i++ {
				vd[i] = math.Float64bits(math.Float64frombits(va[i])*b +
					math.Float64frombits(vc[i]))
			}
		} else {
			vb := &t.VecRegs[in.Rb.Index()]
			for i := 0; i < vl; i++ {
				vd[i] = math.Float64bits(math.Float64frombits(va[i])*
					math.Float64frombits(vb[i]) + math.Float64frombits(vc[i]))
			}
		}

	case isa.OpVBcastI:
		a := t.getInt(in.Ra)
		vd := &t.VecRegs[in.Rd.Index()]
		for i := 0; i < vl; i++ {
			vd[i] = a
		}
	case isa.OpVBcastF:
		a := math.Float64bits(t.FPRegs[in.Ra.Index()])
		vd := &t.VecRegs[in.Rd.Index()]
		for i := 0; i < vl; i++ {
			vd[i] = a
		}
	case isa.OpVIota:
		vd := &t.VecRegs[in.Rd.Index()]
		for i := 0; i < vl; i++ {
			vd[i] = uint64(i)
		}
	case isa.OpVMov:
		va := &t.VecRegs[in.Ra.Index()]
		vd := &t.VecRegs[in.Rd.Index()]
		copy(vd[:vl], va[:vl])

	case isa.OpVRedSum:
		va := &t.VecRegs[in.Ra.Index()]
		var sum uint64
		for i := 0; i < vl; i++ {
			sum += va[i]
		}
		t.setInt(in.Rd, sum)
	case isa.OpVRedMax:
		va := &t.VecRegs[in.Ra.Index()]
		best := int64(math.MinInt64)
		for i := 0; i < vl; i++ {
			if e := int64(va[i]); e > best {
				best = e
			}
		}
		if vl == 0 {
			best = 0
		}
		t.setInt(in.Rd, uint64(best))
	case isa.OpVFRedSum:
		va := &t.VecRegs[in.Ra.Index()]
		var sum float64
		for i := 0; i < vl; i++ {
			sum += math.Float64frombits(va[i])
		}
		t.FPRegs[in.Rd.Index()] = sum
	case isa.OpVFRedMax:
		va := &t.VecRegs[in.Ra.Index()]
		best := math.Inf(-1)
		for i := 0; i < vl; i++ {
			if e := math.Float64frombits(va[i]); e > best {
				best = e
			}
		}
		if vl == 0 {
			best = 0
		}
		t.FPRegs[in.Rd.Index()] = best

	case isa.OpVLd, isa.OpVLdS, isa.OpVLdX:
		addrs, err := v.vecAddrs(t, in, vl, d.EffAddrs[:0])
		if err != nil {
			return v.fault(t, "%v", err)
		}
		vd := &t.VecRegs[in.Rd.Index()]
		for i, a := range addrs {
			val, err := v.Mem.ReadWord(a)
			if err != nil {
				return v.fault(t, "element %d: %v", i, err)
			}
			vd[i] = val
		}
		d.EffAddrs = addrs

	case isa.OpVSt, isa.OpVStS, isa.OpVStX:
		addrs, err := v.vecAddrs(t, in, vl, d.EffAddrs[:0])
		if err != nil {
			return v.fault(t, "%v", err)
		}
		vd := &t.VecRegs[in.Rd.Index()]
		for i, a := range addrs {
			if err := v.Mem.WriteWord(a, vd[i]); err != nil {
				return v.fault(t, "element %d: %v", i, err)
			}
		}
		d.EffAddrs = addrs

	default:
		return v.fault(t, "unimplemented opcode")
	}
	return nil
}

// vecAddrs computes the element addresses of a vector memory instruction
// into buf (normally the Dyn's recycled EffAddrs buffer). A buffer too
// small is replaced by one of MaxVL capacity, so a recycled Dyn's buffer
// fits every later vector access and the steady state allocates none.
func (v *VM) vecAddrs(t *Thread, in *isa.Instruction, vl int, buf []uint64) ([]uint64, error) {
	base := t.getInt(in.Ra)
	if cap(buf) < vl {
		buf = make([]uint64, 0, isa.MaxVL)
	}
	addrs := buf[:vl]
	switch in.Op {
	case isa.OpVLd, isa.OpVSt:
		for i := 0; i < vl; i++ {
			addrs[i] = base + uint64(i)*8
		}
	case isa.OpVLdS, isa.OpVStS:
		stride := t.getInt(in.Rb)
		for i := 0; i < vl; i++ {
			addrs[i] = base + uint64(i)*stride
		}
	case isa.OpVLdX, isa.OpVStX:
		vb := &t.VecRegs[in.Rb.Index()]
		for i := 0; i < vl; i++ {
			addrs[i] = base + vb[i]
		}
	}
	return addrs, nil
}

func vecIntOp(op isa.Op, a, b uint64) uint64 {
	switch op {
	case isa.OpVAdd:
		return a + b
	case isa.OpVSub:
		return a - b
	case isa.OpVMul:
		return uint64(int64(a) * int64(b))
	case isa.OpVAnd:
		return a & b
	case isa.OpVOr:
		return a | b
	case isa.OpVXor:
		return a ^ b
	case isa.OpVSll:
		return a << (b & 63)
	case isa.OpVSrl:
		return a >> (b & 63)
	case isa.OpVAbsDiff:
		d := int64(a) - int64(b)
		if d < 0 {
			d = -d
		}
		return uint64(d)
	case isa.OpVMax:
		if int64(a) > int64(b) {
			return a
		}
		return b
	case isa.OpVMin:
		if int64(a) < int64(b) {
			return a
		}
		return b
	}
	panic("vecIntOp: bad op " + op.String())
}

func vecFPOp(op isa.Op, a, b float64) float64 {
	switch op {
	case isa.OpVFAdd:
		return a + b
	case isa.OpVFSub:
		return a - b
	case isa.OpVFMul:
		return a * b
	case isa.OpVFDiv:
		return a / b
	}
	panic("vecFPOp: bad op " + op.String())
}
