package asm

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"vlt/internal/isa"
)

func TestParseTextBasicProgram(t *testing.T) {
	src := `
# sum the data array with a vector reduction
.data tbl 1 2 3 4 5 6 7 8
.alloc out 1

start:
    movi r1, 8
    setvl r2, r1
    movi r3, &tbl
    vld v1, (r3)
    vredsum r4, v1
    movi r5, &out
    st r4, 0(r5)
    halt
`
	p, err := ParseText("basic", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Code) != 8 {
		t.Fatalf("code length %d, want 8", len(p.Code))
	}
	if p.Code[2].Op != isa.OpMovI || p.Code[2].Imm != int64(p.Symbol("tbl")) {
		t.Errorf("&tbl not resolved: %+v", p.Code[2])
	}
	if p.Code[3].Op != isa.OpVLd || p.Code[3].Rd != isa.V(1) || p.Code[3].Ra != isa.R(3) {
		t.Errorf("vld parsed wrong: %+v", p.Code[3])
	}
	if p.Code[6].Op != isa.OpSt || p.Code[6].Imm != 0 {
		t.Errorf("st parsed wrong: %+v", p.Code[6])
	}
}

func TestParseTextLabelsAndBranches(t *testing.T) {
	src := `
    movi r1, 10
loop:
    sub r1, r1, 1
    bne r1, r0, loop
    j done
    nop
done: halt
`
	p, err := ParseText("branches", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[2].Op != isa.OpBne || p.Code[2].Imm != 1 {
		t.Errorf("bne target = %d, want 1", p.Code[2].Imm)
	}
	if p.Code[3].Op != isa.OpJ || p.Code[3].Imm != 5 {
		t.Errorf("j target = %d, want 5", p.Code[3].Imm)
	}
	// Immediate form of sub.
	if !p.Code[1].HasImm || p.Code[1].Imm != 1 {
		t.Errorf("sub immediate form wrong: %+v", p.Code[1])
	}
}

func TestParseTextVectorForms(t *testing.T) {
	src := `
    vadd v1, v2, v3
    vadd.vs v1, v2, r5
    vfma v1, v2, f3, v4
    vlds v0, (r4), r5
    vldx v0, (r4+v6)
    vstx v0, (r4+v6)
    fmovi f1, 2.5
    mark 3
    vltcfg 4
    halt
`
	p, err := ParseText("vec", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].BScalar {
		t.Error("vadd v,v,v should not be scalar form")
	}
	if !p.Code[1].BScalar || p.Code[1].Rb != isa.R(5) {
		t.Errorf("vadd.vs wrong: %+v", p.Code[1])
	}
	if !p.Code[2].BScalar || p.Code[2].Rc != isa.V(4) {
		t.Errorf("vfma with scalar multiplier wrong: %+v", p.Code[2])
	}
	if p.Code[3].Rb != isa.R(5) {
		t.Errorf("vlds stride wrong: %+v", p.Code[3])
	}
	if p.Code[4].Rb != isa.V(6) || p.Code[5].Rb != isa.V(6) {
		t.Errorf("indexed forms wrong: %+v %+v", p.Code[4], p.Code[5])
	}
	if math.Float64frombits(uint64(p.Code[6].Imm)) != 2.5 {
		t.Errorf("fmovi wrong: %+v", p.Code[6])
	}
	if p.Code[7].Imm != 3 || p.Code[8].Imm != 4 {
		t.Errorf("mark/vltcfg wrong: %+v %+v", p.Code[7], p.Code[8])
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := []string{
		"bogus r1, r2\nhalt",
		"add r1, r2\nhalt",          // missing operand
		"add r1, r2, x9\nhalt",      // bad register
		"movi r1, &missing\nhalt",   // unknown symbol
		"ld r1, r2\nhalt",           // bad memory operand
		".alloc\nhalt",              // bad directive
		".data t xyz\nhalt",         // bad data value
		"vldx v0, (r4)\nhalt",       // missing index
		"beq r1, r0, nowhere\nhalt", // unbound label
		"add r40, r1, r2\nhalt",     // register out of range
		"j @notanumber\nhalt",       // bad absolute target
		".unknown foo\nhalt",        // unknown directive
		"add.vs r1, r2, r3\nhalt",   // .vs on an op with no vector-scalar form
	}
	for _, src := range cases {
		if _, err := ParseText("bad", src); err == nil {
			t.Errorf("expected error for %q", strings.Split(src, "\n")[0])
		}
	}
	if _, err := ParseText("bad", "add.vs r1, r2, r3\nhalt"); err == nil || !strings.Contains(err.Error(), "add has no") {
		t.Errorf("add.vs: error %v does not name the mnemonic", err)
	}
}

// roundTripOps lists every opcode with the register class of its Rd,
// Ra, Rb and Rc fields, as far as it uses them (r integer, f floating
// point, v vector, - unused), and the operand forms it takes beyond
// registers: i an integer immediate or branch target, f a float
// immediate, B a register or an immediate Rb, V a vector or a scalar
// (vector-scalar) Rb. The scalar Rb of a vector floating-point op (vf*)
// is an f register, of any other an r register.
var roundTripOps = []struct {
	regs, form string
	ops        []isa.Op
}{
	{"rrr", "B", []isa.Op{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpRem, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpSlt, isa.OpSltu, isa.OpSeq}},
	{"fff", "B", []isa.Op{isa.OpFAdd, isa.OpFSub, isa.OpFMul, isa.OpFDiv, isa.OpFMin, isa.OpFMax}},
	{"rff", "B", []isa.Op{isa.OpFLt, isa.OpFLe, isa.OpFEq}},
	{"r", "i", []isa.Op{isa.OpMovI, isa.OpJal}},
	{"rr", "i", []isa.Op{isa.OpLd, isa.OpSt}},
	{"fr", "i", []isa.Op{isa.OpFLd, isa.OpFSt}},
	{"-rr", "i", []isa.Op{isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBltu}},
	{"", "i", []isa.Op{isa.OpJ, isa.OpMark, isa.OpVltCfg}},
	{"f", "f", []isa.Op{isa.OpFMovI}},
	{"", "", []isa.Op{isa.OpNop, isa.OpHalt, isa.OpBar}},
	{"rr", "", []isa.Op{isa.OpMov, isa.OpSetVL}},
	{"ff", "", []isa.Op{isa.OpFSqrt, isa.OpFNeg, isa.OpFAbs, isa.OpFMov}},
	{"fr", "", []isa.Op{isa.OpCvtIF}},
	{"rf", "", []isa.Op{isa.OpCvtFI}},
	{"-r", "", []isa.Op{isa.OpJr}},
	{"vvv", "V", []isa.Op{isa.OpVAdd, isa.OpVSub, isa.OpVMul, isa.OpVAnd, isa.OpVOr, isa.OpVXor,
		isa.OpVSll, isa.OpVSrl, isa.OpVAbsDiff, isa.OpVMax, isa.OpVMin,
		isa.OpVFAdd, isa.OpVFSub, isa.OpVFMul, isa.OpVFDiv}},
	{"vvvv", "V", []isa.Op{isa.OpVFMA}},
	{"vvv", "", []isa.Op{isa.OpVLdX, isa.OpVStX}},
	{"vrr", "", []isa.Op{isa.OpVLdS, isa.OpVStS}},
	{"vr", "", []isa.Op{isa.OpVBcastI, isa.OpVLd, isa.OpVSt}},
	{"vf", "", []isa.Op{isa.OpVBcastF}},
	{"v", "", []isa.Op{isa.OpVIota}},
	{"vv", "", []isa.Op{isa.OpVMov}},
	{"rv", "", []isa.Op{isa.OpVRedSum, isa.OpVRedMax}},
	{"fv", "", []isa.Op{isa.OpVFRedSum, isa.OpVFRedMax}},
}

// Round trip: every opcode, disassembled and parsed back, yields the
// same instruction — with both forms of a B and a V operand, and float
// immediates that need a sign or all 17 digits to come back bit for bit.
func TestDisassembleParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	reg := func(class byte) isa.Reg {
		switch class {
		case 'r':
			return isa.R(rng.Intn(isa.NumIntRegs))
		case 'f':
			return isa.F(rng.Intn(isa.NumFPRegs))
		case 'v':
			return isa.V(rng.Intn(isa.NumVecRegs))
		}
		return 0 // an unused field keeps the parser's zero value
	}
	seen := map[isa.Op]bool{}
	var cases []isa.Instruction
	for _, g := range roundTripOps {
		classes := g.regs + "----"
		for _, op := range g.ops {
			seen[op] = true
			in := isa.Instruction{Op: op, Rd: reg(classes[0]), Ra: reg(classes[1]), Rb: reg(classes[2]), Rc: reg(classes[3])}
			switch g.form {
			case "i":
				in.Imm = int64(rng.Intn(4000) - 2000)
			case "f":
				for _, f := range []float64{0.25, math.Copysign(0, -1), 0.1, 1e-300, -2.5e17} {
					in.Imm = int64(math.Float64bits(f))
					cases = append(cases, in)
				}
				continue
			}
			cases = append(cases, in)
			switch g.form {
			case "B":
				in.Rb, in.HasImm, in.Imm = 0, true, int64(rng.Intn(4000)-2000)
				cases = append(cases, in)
			case "V":
				scalar := byte('r')
				if strings.HasPrefix(op.String(), "vf") {
					scalar = 'f'
				}
				in.Rb, in.BScalar = reg(scalar), true
				cases = append(cases, in)
			}
		}
	}
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		if !seen[op] {
			t.Errorf("%s: missing from roundTripOps", op)
		}
	}
	for _, in := range cases {
		text := in.String()
		p, err := ParseText("rt", text+"\nhalt")
		if err != nil {
			t.Errorf("parse of %q failed: %v", text, err)
			continue
		}
		if got := p.Code[0]; got != in {
			t.Errorf("round trip mismatch:\n disasm %q\n in  %+v\n out %+v", text, in, got)
		}
	}
}

func TestParseTextBranchAbsoluteTarget(t *testing.T) {
	p, err := ParseText("abs", "beq r1, r0, @3\nnop\nnop\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Imm != 3 {
		t.Errorf("absolute target = %d, want 3", p.Code[0].Imm)
	}
}
