package isa

import "fmt"

// Op identifies an opcode.
type Op uint16

// Opcodes. Scalar integer, scalar floating point, control flow, scalar
// memory, system, vector configuration, vector arithmetic, vector
// reductions and vector memory. The set is deliberately small but complete
// enough to hand-vectorize every workload in internal/workloads.
const (
	OpInvalid Op = iota

	// Scalar integer ALU (rd <- ra op rb/imm).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpSll
	OpSrl
	OpSra
	OpSlt  // rd = (ra < rb) signed
	OpSltu // rd = (ra < rb) unsigned
	OpSeq  // rd = (ra == rb)
	OpMovI // rd = imm
	OpMov  // rd = ra

	// Scalar floating point (register file F).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFSqrt
	OpFNeg
	OpFAbs
	OpFMin
	OpFMax
	OpFMov  // fd = fa
	OpFMovI // fd = float64frombits(imm)
	OpCvtIF // fd = float64(ra)        (int reg -> fp reg)
	OpCvtFI // rd = int64(fa)          (fp reg -> int reg, truncating)
	OpFLt   // rd = (fa < fb)
	OpFLe   // rd = (fa <= fb)
	OpFEq   // rd = (fa == fb)

	// Control flow. Targets are absolute instruction indices in Imm.
	OpBeq
	OpBne
	OpBlt // signed
	OpBge // signed
	OpBltu
	OpJ
	OpJal // rd = return index, jump to Imm
	OpJr  // jump to ra

	// Scalar memory (64-bit words, byte addresses, 8-byte aligned).
	OpLd  // rd <- mem[ra+imm]
	OpSt  // mem[ra+imm] <- rd
	OpFLd // fd <- mem[ra+imm]
	OpFSt // mem[ra+imm] <- fd

	// System.
	OpNop
	OpHalt
	OpBar    // barrier across all threads of the program
	OpMark   // region marker, Imm = region id (used for %opportunity)
	OpVltCfg // request lane repartitioning into Imm partitions

	// Vector configuration.
	OpSetVL // rd = VL = min(ra, partition max VL); writes RegVL

	// Vector integer arithmetic (vd <- va op vb; BScalar: vb is R reg).
	OpVAdd
	OpVSub
	OpVMul
	OpVAnd
	OpVOr
	OpVXor
	OpVSll
	OpVSrl
	OpVAbsDiff // |va - vb| elementwise, signed
	OpVMax
	OpVMin

	// Vector floating point (BScalar: vb is F reg).
	OpVFAdd
	OpVFSub
	OpVFMul
	OpVFDiv
	OpVFMA // vd = va*vb + vc (BScalar: vb is F reg)

	// Vector unary / generators.
	OpVBcastI // vd[i] = ra        (broadcast integer scalar)
	OpVBcastF // vd[i] = fa        (broadcast fp scalar)
	OpVIota   // vd[i] = i
	OpVMov    // vd = va

	// Vector reductions (scalar destination).
	OpVRedSum  // rd = sum(va) integer
	OpVRedMax  // rd = max(va) integer signed
	OpVFRedSum // fd = sum(va) fp
	OpVFRedMax // fd = max(va) fp

	// Vector memory. Element size 8 bytes.
	OpVLd  // vd[i] <- mem[ra + 8i]
	OpVSt  // mem[ra + 8i] <- vd[i]
	OpVLdS // vd[i] <- mem[ra + rb*i]          (rb = stride in bytes)
	OpVStS // mem[ra + rb*i] <- vd[i]
	OpVLdX // vd[i] <- mem[ra + vb[i]]         (vb = byte-offset index vector)
	OpVStX // mem[ra + vb[i]] <- vd[i]

	numOps // sentinel
)

// NumOps is the number of defined opcodes (including OpInvalid).
const NumOps = int(numOps)

// Class is the functional-unit class an instruction executes on. The
// scalar unit has 4 arithmetic units (shared by IntALU/IntMul/FP) and 2
// memory ports; the vector unit has 3 arithmetic datapaths per lane (one
// per VFU) and 2 memory ports per lane.
type Class uint8

const (
	ClassNone   Class = iota
	ClassIntALU       // 1-cycle integer ops, branches resolve here
	ClassIntMul       // integer multiply/divide
	ClassFP           // scalar floating point
	ClassLoad
	ClassStore
	ClassVecALU // vector arithmetic (VFU selects datapath 0..2)
	ClassVecLoad
	ClassVecStore
	ClassCtl // system ops: nop/halt/bar/mark/vltcfg/setvl
)

// Info is static metadata for one opcode.
type Info struct {
	Name string

	// Syntax is the operand template that Instruction.String prints
	// and the text assembler parses. The letters d, a, b and c name the
	// Rd, Ra, Rb and Rc register slots; B is Rb, or Imm in the HasImm
	// form; V is an Rb whose scalar register selects the vector-scalar
	// form, written with a ".vs" suffix on the mnemonic; i is Imm as an
	// integer and f is Imm read as a float64; t is a branch target,
	// "@index" (or a label in source). Every other byte is literal.
	Syntax string

	Class  Class
	Vector bool // occupies the vector unit (implies implicit VL read)
	Memory bool // touches data memory
	Branch bool // may redirect control flow

	// Sequencing marks a control op that needs no datapath: every
	// ClassCtl op but SETVL (nop, halt, bar, mark, vltcfg). Pipelines
	// complete or hold these in order instead of issuing them to a
	// unit. defOp derives it from Class.
	Sequencing bool

	Latency int // execution latency in cycles (first-result latency for vector ops)
	VFU     int // vector functional unit index (0..2) for ClassVecALU

	Reads  []slot // operand slots read
	Writes []slot // operand slots written
}

var opInfos [numOps]Info

func defOp(op Op, inf Info) {
	if opInfos[op].Name != "" {
		panic("isa: duplicate opcode definition " + inf.Name)
	}
	inf.Sequencing = inf.Class == ClassCtl && op != OpSetVL
	opInfos[op] = inf
}

// zeroInfo is returned for unknown opcodes; callers must not mutate the
// result of Info.
var zeroInfo Info

// Info returns the metadata for the opcode — a pointer into the static
// opcode table, so the hot paths that consult it every cycle do not copy
// the ~100-byte struct. Unknown opcodes return a zero Info with Name "".
func (op Op) Info() *Info {
	if int(op) >= NumOps {
		return &zeroInfo
	}
	return &opInfos[op]
}

// String returns the opcode mnemonic.
func (op Op) String() string {
	inf := op.Info()
	if inf.Name == "" {
		return fmt.Sprintf("op?%d", uint16(op))
	}
	return inf.Name
}

var (
	rdRaRb = []slot{slotRa, slotRb}
	rdRa   = []slot{slotRa}
	wrRd   = []slot{slotRd}
)

func init() {
	intALU := func(op Op, name string) {
		defOp(op, Info{Name: name, Syntax: "d, a, B", Class: ClassIntALU, Latency: 1, Reads: rdRaRb, Writes: wrRd})
	}
	intALU(OpAdd, "add")
	intALU(OpSub, "sub")
	intALU(OpAnd, "and")
	intALU(OpOr, "or")
	intALU(OpXor, "xor")
	intALU(OpSll, "sll")
	intALU(OpSrl, "srl")
	intALU(OpSra, "sra")
	intALU(OpSlt, "slt")
	intALU(OpSltu, "sltu")
	intALU(OpSeq, "seq")
	defOp(OpMul, Info{Name: "mul", Syntax: "d, a, B", Class: ClassIntMul, Latency: 3, Reads: rdRaRb, Writes: wrRd})
	defOp(OpDiv, Info{Name: "div", Syntax: "d, a, B", Class: ClassIntMul, Latency: 12, Reads: rdRaRb, Writes: wrRd})
	defOp(OpRem, Info{Name: "rem", Syntax: "d, a, B", Class: ClassIntMul, Latency: 12, Reads: rdRaRb, Writes: wrRd})
	defOp(OpMovI, Info{Name: "movi", Syntax: "d, i", Class: ClassIntALU, Latency: 1, Writes: wrRd})
	defOp(OpMov, Info{Name: "mov", Syntax: "d, a", Class: ClassIntALU, Latency: 1, Reads: rdRa, Writes: wrRd})

	fp2 := func(op Op, name string, lat int) {
		defOp(op, Info{Name: name, Syntax: "d, a, B", Class: ClassFP, Latency: lat, Reads: rdRaRb, Writes: wrRd})
	}
	fp2(OpFAdd, "fadd", 4)
	fp2(OpFSub, "fsub", 4)
	fp2(OpFMul, "fmul", 4)
	fp2(OpFDiv, "fdiv", 16)
	fp2(OpFMin, "fmin", 4)
	fp2(OpFMax, "fmax", 4)
	fp2(OpFLt, "flt", 4)
	fp2(OpFLe, "fle", 4)
	fp2(OpFEq, "feq", 4)
	fp1 := func(op Op, name string, lat int) {
		defOp(op, Info{Name: name, Syntax: "d, a", Class: ClassFP, Latency: lat, Reads: rdRa, Writes: wrRd})
	}
	fp1(OpFSqrt, "fsqrt", 20)
	fp1(OpFNeg, "fneg", 1)
	fp1(OpFAbs, "fabs", 1)
	fp1(OpFMov, "fmov", 1)
	fp1(OpCvtIF, "cvtif", 4)
	fp1(OpCvtFI, "cvtfi", 4)
	defOp(OpFMovI, Info{Name: "fmovi", Syntax: "d, f", Class: ClassFP, Latency: 1, Writes: wrRd})

	br := func(op Op, name string) {
		defOp(op, Info{Name: name, Syntax: "a, b, t", Class: ClassIntALU, Branch: true, Latency: 1, Reads: rdRaRb})
	}
	br(OpBeq, "beq")
	br(OpBne, "bne")
	br(OpBlt, "blt")
	br(OpBge, "bge")
	br(OpBltu, "bltu")
	defOp(OpJ, Info{Name: "j", Syntax: "t", Class: ClassIntALU, Branch: true, Latency: 1})
	defOp(OpJal, Info{Name: "jal", Syntax: "d, t", Class: ClassIntALU, Branch: true, Latency: 1, Writes: wrRd})
	defOp(OpJr, Info{Name: "jr", Syntax: "a", Class: ClassIntALU, Branch: true, Latency: 1, Reads: rdRa})

	defOp(OpLd, Info{Name: "ld", Syntax: "d, i(a)", Class: ClassLoad, Memory: true, Latency: 1, Reads: rdRa, Writes: wrRd})
	defOp(OpFLd, Info{Name: "fld", Syntax: "d, i(a)", Class: ClassLoad, Memory: true, Latency: 1, Reads: rdRa, Writes: wrRd})
	defOp(OpSt, Info{Name: "st", Syntax: "d, i(a)", Class: ClassStore, Memory: true, Latency: 1, Reads: []slot{slotRd, slotRa}})
	defOp(OpFSt, Info{Name: "fst", Syntax: "d, i(a)", Class: ClassStore, Memory: true, Latency: 1, Reads: []slot{slotRd, slotRa}})

	defOp(OpNop, Info{Name: "nop", Class: ClassCtl, Latency: 1})
	defOp(OpHalt, Info{Name: "halt", Class: ClassCtl, Latency: 1})
	defOp(OpBar, Info{Name: "bar", Class: ClassCtl, Latency: 1})
	defOp(OpMark, Info{Name: "mark", Syntax: "i", Class: ClassCtl, Latency: 1})
	defOp(OpVltCfg, Info{Name: "vltcfg", Syntax: "i", Class: ClassCtl, Latency: 1})

	defOp(OpSetVL, Info{Name: "setvl", Syntax: "d, a", Class: ClassCtl, Latency: 1, Reads: rdRa, Writes: wrRd})

	vint := func(op Op, name string) {
		defOp(op, Info{Name: name, Syntax: "d, a, V", Class: ClassVecALU, Vector: true, Latency: 2, VFU: 0, Reads: rdRaRb, Writes: wrRd})
	}
	vint(OpVAdd, "vadd")
	vint(OpVSub, "vsub")
	vint(OpVAnd, "vand")
	vint(OpVOr, "vor")
	vint(OpVXor, "vxor")
	vint(OpVSll, "vsll")
	vint(OpVSrl, "vsrl")
	vint(OpVAbsDiff, "vabsdiff")
	vint(OpVMax, "vmax")
	vint(OpVMin, "vmin")
	defOp(OpVMul, Info{Name: "vmul", Syntax: "d, a, V", Class: ClassVecALU, Vector: true, Latency: 4, VFU: 2, Reads: rdRaRb, Writes: wrRd})

	vfp := func(op Op, name string, lat, vfu int) {
		defOp(op, Info{Name: name, Syntax: "d, a, V", Class: ClassVecALU, Vector: true, Latency: lat, VFU: vfu, Reads: rdRaRb, Writes: wrRd})
	}
	vfp(OpVFAdd, "vfadd", 4, 1)
	vfp(OpVFSub, "vfsub", 4, 1)
	vfp(OpVFMul, "vfmul", 4, 2)
	vfp(OpVFDiv, "vfdiv", 16, 2)
	defOp(OpVFMA, Info{Name: "vfma", Syntax: "d, a, V, c", Class: ClassVecALU, Vector: true, Latency: 6, VFU: 2,
		Reads: []slot{slotRa, slotRb, slotRc}, Writes: wrRd})

	defOp(OpVBcastI, Info{Name: "vbcasti", Syntax: "d, a", Class: ClassVecALU, Vector: true, Latency: 2, VFU: 0, Reads: rdRa, Writes: wrRd})
	defOp(OpVBcastF, Info{Name: "vbcastf", Syntax: "d, a", Class: ClassVecALU, Vector: true, Latency: 2, VFU: 0, Reads: rdRa, Writes: wrRd})
	defOp(OpVIota, Info{Name: "viota", Syntax: "d", Class: ClassVecALU, Vector: true, Latency: 2, VFU: 0, Writes: wrRd})
	defOp(OpVMov, Info{Name: "vmov", Syntax: "d, a", Class: ClassVecALU, Vector: true, Latency: 2, VFU: 0, Reads: rdRa, Writes: wrRd})

	defOp(OpVRedSum, Info{Name: "vredsum", Syntax: "d, a", Class: ClassVecALU, Vector: true, Latency: 8, VFU: 0, Reads: rdRa, Writes: wrRd})
	defOp(OpVRedMax, Info{Name: "vredmax", Syntax: "d, a", Class: ClassVecALU, Vector: true, Latency: 8, VFU: 0, Reads: rdRa, Writes: wrRd})
	defOp(OpVFRedSum, Info{Name: "vfredsum", Syntax: "d, a", Class: ClassVecALU, Vector: true, Latency: 12, VFU: 1, Reads: rdRa, Writes: wrRd})
	defOp(OpVFRedMax, Info{Name: "vfredmax", Syntax: "d, a", Class: ClassVecALU, Vector: true, Latency: 12, VFU: 1, Reads: rdRa, Writes: wrRd})

	defOp(OpVLd, Info{Name: "vld", Syntax: "d, (a)", Class: ClassVecLoad, Vector: true, Memory: true, Latency: 1, Reads: rdRa, Writes: wrRd})
	defOp(OpVLdS, Info{Name: "vlds", Syntax: "d, (a), b", Class: ClassVecLoad, Vector: true, Memory: true, Latency: 1, Reads: rdRaRb, Writes: wrRd})
	defOp(OpVLdX, Info{Name: "vldx", Syntax: "d, (a+b)", Class: ClassVecLoad, Vector: true, Memory: true, Latency: 1, Reads: rdRaRb, Writes: wrRd})
	defOp(OpVSt, Info{Name: "vst", Syntax: "d, (a)", Class: ClassVecStore, Vector: true, Memory: true, Latency: 1, Reads: []slot{slotRd, slotRa}})
	defOp(OpVStS, Info{Name: "vsts", Syntax: "d, (a), b", Class: ClassVecStore, Vector: true, Memory: true, Latency: 1, Reads: []slot{slotRd, slotRa, slotRb}})
	defOp(OpVStX, Info{Name: "vstx", Syntax: "d, (a+b)", Class: ClassVecStore, Vector: true, Memory: true, Latency: 1, Reads: []slot{slotRd, slotRa, slotRb}})
}
