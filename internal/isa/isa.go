package isa

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Architectural constants. They mirror the Cray X1 register model used by
// the paper (32 vector registers with 64 64-bit elements per register).
const (
	NumIntRegs = 32 // scalar integer registers r0..r31 (r0 reads as zero)
	NumFPRegs  = 32 // scalar floating-point registers f0..f31
	NumVecRegs = 32 // architectural vector registers v0..v31
	MaxVL      = 64 // elements per vector register
)

// Reg is a unified architectural register identifier. Integer, floating
// point and vector registers share one id space so dependency tracking,
// renaming and scoreboarding can treat them uniformly.
//
// Layout: [0,32) integer, [32,64) floating point, [64,96) vector, 96 the
// vector-length register, and RegNone meaning "no register".
type Reg uint8

const (
	regIntBase Reg = 0
	regFPBase  Reg = 32
	regVecBase Reg = 64

	// RegVL is the vector-length register written by SETVL and implicitly
	// read by every vector instruction.
	RegVL Reg = 96

	// NumRegs is the total number of architectural register identifiers
	// (including RegVL).
	NumRegs = 97

	// RegNone marks an unused register slot in an instruction.
	RegNone Reg = 0xFF
)

// R returns the i'th scalar integer register.
func R(i int) Reg {
	if i < 0 || i >= NumIntRegs {
		panic(fmt.Sprintf("isa: integer register index %d out of range", i))
	}
	return regIntBase + Reg(i)
}

// F returns the i'th scalar floating-point register.
func F(i int) Reg {
	if i < 0 || i >= NumFPRegs {
		panic(fmt.Sprintf("isa: fp register index %d out of range", i))
	}
	return regFPBase + Reg(i)
}

// V returns the i'th vector register.
func V(i int) Reg {
	if i < 0 || i >= NumVecRegs {
		panic(fmt.Sprintf("isa: vector register index %d out of range", i))
	}
	return regVecBase + Reg(i)
}

// IsInt reports whether r is a scalar integer register.
func (r Reg) IsInt() bool { return r < regFPBase }

// IsFP reports whether r is a scalar floating-point register.
func (r Reg) IsFP() bool { return r >= regFPBase && r < regVecBase }

// IsVec reports whether r is a vector register.
func (r Reg) IsVec() bool { return r >= regVecBase && r < regVecBase+NumVecRegs }

// IsScalar reports whether r is a scalar (integer or floating point)
// register.
func (r Reg) IsScalar() bool { return r < regVecBase }

// Valid reports whether r names an architectural register (including RegVL).
func (r Reg) Valid() bool { return r < NumRegs }

// Index returns the register number within its class (e.g. V(7).Index()==7).
func (r Reg) Index() int {
	switch {
	case r.IsInt():
		return int(r)
	case r.IsFP():
		return int(r - regFPBase)
	case r.IsVec():
		return int(r - regVecBase)
	default:
		return int(r)
	}
}

// String renders the register in assembly syntax.
func (r Reg) String() string {
	switch {
	case r == RegNone:
		return "-"
	case r == RegVL:
		return "vl"
	case r.IsInt():
		return fmt.Sprintf("r%d", r.Index())
	case r.IsFP():
		return fmt.Sprintf("f%d", r.Index())
	case r.IsVec():
		return fmt.Sprintf("v%d", r.Index())
	default:
		return fmt.Sprintf("reg?%d", int(r))
	}
}

// Instruction is a decoded machine instruction. Operand meaning depends on
// the opcode, and its Info.Syntax (ops.go) lays out the text form.
// PC-relative control flow is not used: branch and jump targets are
// absolute instruction indices held in Imm (the assembler resolves
// labels to indices).
type Instruction struct {
	Op  Op
	Rd  Reg // destination (or store-data source for stores)
	Ra  Reg // first source
	Rb  Reg // second source (or index vector / stride register)
	Rc  Reg // third source (FMA addend)
	Imm int64

	// HasImm selects the immediate form of scalar ALU ops (Rb is ignored
	// and Imm supplies the second operand).
	HasImm bool

	// BScalar selects the vector-scalar form of vector arithmetic ops: Rb
	// names a scalar register whose value is broadcast across elements.
	BScalar bool
}

// Dests returns the architectural registers written by the instruction.
// The result is freshly allocated on each call.
func (in *Instruction) Dests() []Reg { return in.AppendDests(nil) }

// AppendDests appends the registers written by the instruction to buf
// and returns it — the allocation-free form of Dests for analysis loops
// that reuse a scratch buffer.
func (in *Instruction) AppendDests(buf []Reg) []Reg {
	if int(in.Op) >= NumOps {
		return buf
	}
	info := &opInfos[in.Op] // avoid the Info() struct copy in analysis loops
	for _, slot := range info.Writes {
		if r := in.reg(slot); r != RegNone {
			buf = append(buf, r)
		}
	}
	if in.Op == OpSetVL {
		buf = append(buf, RegVL)
	}
	return buf
}

// Srcs returns the architectural registers read by the instruction,
// including the implicit RegVL read of vector operations. The result is
// freshly allocated on each call.
func (in *Instruction) Srcs() []Reg { return in.AppendSrcs(nil) }

// AppendSrcs appends the registers read by the instruction to buf and
// returns it — the allocation-free form of Srcs.
func (in *Instruction) AppendSrcs(buf []Reg) []Reg {
	if int(in.Op) >= NumOps {
		return buf
	}
	info := &opInfos[in.Op] // avoid the Info() struct copy in analysis loops
	for _, slot := range info.Reads {
		r := in.reg(slot)
		if r == RegNone {
			continue
		}
		if slot == slotRb && in.HasImm {
			continue // immediate form: Rb not read
		}
		buf = append(buf, r)
	}
	if info.Vector && in.Op != OpSetVL {
		buf = append(buf, RegVL)
	}
	return buf
}

// BranchTarget returns the static control-flow target of the
// instruction (an absolute instruction index), if it has one: every
// opcode whose Syntax ends in a target (conditional branches, jumps and
// calls). Indirect jumps (JR) have no static target.
func (in *Instruction) BranchTarget() (int, bool) {
	if int(in.Op) >= NumOps || !strings.HasSuffix(opInfos[in.Op].Syntax, "t") {
		return 0, false
	}
	return int(in.Imm), true
}

// operand slots used by the metadata tables.
type slot uint8

const (
	slotRd slot = iota
	slotRa
	slotRb
	slotRc
)

func (in *Instruction) reg(s slot) Reg {
	switch s {
	case slotRd:
		return in.Rd
	case slotRa:
		return in.Ra
	case slotRb:
		return in.Rb
	case slotRc:
		return in.Rc
	}
	return RegNone
}

// Field returns the register field a Syntax letter names: Rd for d, Ra
// for a, Rb for b, B and V, and Rc for c; nil for any other byte.
func (in *Instruction) Field(c byte) *Reg {
	switch c {
	case 'd':
		return &in.Rd
	case 'a':
		return &in.Ra
	case 'b', 'B', 'V':
		return &in.Rb
	case 'c':
		return &in.Rc
	}
	return nil
}

// String disassembles the instruction: the mnemonic, ".vs" for the
// vector-scalar form, then the operands laid out by its Info.Syntax.
func (in *Instruction) String() string {
	syntax := in.Op.Info().Syntax
	buf := append(make([]byte, 0, 32), in.Op.String()...)
	if in.BScalar && strings.Contains(syntax, "V") {
		buf = append(buf, ".vs"...)
	}
	if syntax != "" {
		buf = append(buf, ' ')
	}
	for i := 0; i < len(syntax); i++ {
		c := syntax[i]
		switch r := in.Field(c); {
		case c == 'i' || c == 'B' && in.HasImm:
			buf = strconv.AppendInt(buf, in.Imm, 10)
		case c == 'f':
			buf = strconv.AppendFloat(buf, math.Float64frombits(uint64(in.Imm)), 'g', -1, 64)
		case c == 't':
			buf = strconv.AppendInt(append(buf, '@'), in.Imm, 10)
		case r != nil:
			buf = append(buf, r.String()...)
		default:
			buf = append(buf, c)
		}
	}
	return string(buf)
}
