package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegisterConstructors(t *testing.T) {
	for i := 0; i < NumIntRegs; i++ {
		r := R(i)
		if !r.IsInt() || r.IsFP() || r.IsVec() {
			t.Fatalf("R(%d) misclassified: %v", i, r)
		}
		if r.Index() != i {
			t.Fatalf("R(%d).Index() = %d", i, r.Index())
		}
	}
	for i := 0; i < NumFPRegs; i++ {
		r := F(i)
		if !r.IsFP() || r.IsInt() || r.IsVec() {
			t.Fatalf("F(%d) misclassified: %v", i, r)
		}
		if r.Index() != i {
			t.Fatalf("F(%d).Index() = %d", i, r.Index())
		}
	}
	for i := 0; i < NumVecRegs; i++ {
		r := V(i)
		if !r.IsVec() || r.IsScalar() {
			t.Fatalf("V(%d) misclassified: %v", i, r)
		}
		if r.Index() != i {
			t.Fatalf("V(%d).Index() = %d", i, r.Index())
		}
	}
	if RegVL.IsInt() || RegVL.IsFP() || RegVL.IsVec() {
		t.Fatalf("RegVL misclassified")
	}
	if !RegVL.Valid() || RegNone.Valid() {
		t.Fatalf("validity misreported")
	}
}

func TestRegisterConstructorsPanic(t *testing.T) {
	cases := []func(){
		func() { R(-1) }, func() { R(NumIntRegs) },
		func() { F(-1) }, func() { F(NumFPRegs) },
		func() { V(-1) }, func() { V(NumVecRegs) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestRegString(t *testing.T) {
	cases := map[Reg]string{
		R(0): "r0", R(31): "r31",
		F(0): "f0", F(5): "f5",
		V(0): "v0", V(31): "v31",
		RegVL: "vl", RegNone: "-",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestAllOpsHaveInfo(t *testing.T) {
	for op := OpInvalid + 1; int(op) < NumOps; op++ {
		inf := op.Info()
		if inf.Name == "" {
			t.Errorf("opcode %d has no metadata", op)
			continue
		}
		if inf.Vector && inf.Class != ClassVecALU && inf.Class != ClassVecLoad && inf.Class != ClassVecStore {
			t.Errorf("%s: vector flag with non-vector class %d", inf.Name, inf.Class)
		}
		if inf.Class == ClassVecALU && (inf.VFU < 0 || inf.VFU > 2) {
			t.Errorf("%s: VFU index %d out of range", inf.Name, inf.VFU)
		}
		if inf.Latency < 1 {
			t.Errorf("%s: non-positive latency %d", inf.Name, inf.Latency)
		}
	}
}

func TestOpNamesUnique(t *testing.T) {
	seen := map[string]Op{}
	for op := OpInvalid + 1; int(op) < NumOps; op++ {
		name := op.Info().Name
		if prev, dup := seen[name]; dup {
			t.Errorf("opcode name %q shared by %d and %d", name, prev, op)
		}
		seen[name] = op
	}
}

func TestSrcsDests(t *testing.T) {
	cases := []struct {
		in    Instruction
		srcs  []Reg
		dests []Reg
	}{
		{Instruction{Op: OpAdd, Rd: R(1), Ra: R(2), Rb: R(3)}, []Reg{R(2), R(3)}, []Reg{R(1)}},
		{Instruction{Op: OpAdd, Rd: R(1), Ra: R(2), HasImm: true, Imm: 5}, []Reg{R(2)}, []Reg{R(1)}},
		{Instruction{Op: OpSt, Rd: R(4), Ra: R(5), Imm: 8}, []Reg{R(4), R(5)}, nil},
		{Instruction{Op: OpLd, Rd: R(4), Ra: R(5), Imm: 8}, []Reg{R(5)}, []Reg{R(4)}},
		{Instruction{Op: OpVAdd, Rd: V(1), Ra: V(2), Rb: V(3)}, []Reg{V(2), V(3), RegVL}, []Reg{V(1)}},
		{Instruction{Op: OpVAdd, Rd: V(1), Ra: V(2), Rb: R(7), BScalar: true}, []Reg{V(2), R(7), RegVL}, []Reg{V(1)}},
		{Instruction{Op: OpVFMA, Rd: V(1), Ra: V(2), Rb: V(3), Rc: V(4)}, []Reg{V(2), V(3), V(4), RegVL}, []Reg{V(1)}},
		{Instruction{Op: OpSetVL, Rd: R(1), Ra: R(2)}, []Reg{R(2)}, []Reg{R(1), RegVL}},
		{Instruction{Op: OpVLd, Rd: V(0), Ra: R(9)}, []Reg{R(9), RegVL}, []Reg{V(0)}},
		{Instruction{Op: OpVSt, Rd: V(0), Ra: R(9)}, []Reg{V(0), R(9), RegVL}, nil},
		{Instruction{Op: OpVRedSum, Rd: R(3), Ra: V(6)}, []Reg{V(6), RegVL}, []Reg{R(3)}},
		{Instruction{Op: OpBeq, Ra: R(1), Rb: R(2), Imm: 10}, []Reg{R(1), R(2)}, nil},
		{Instruction{Op: OpHalt}, nil, nil},
		{Instruction{Op: OpBar}, nil, nil},
	}
	for i, c := range cases {
		got := c.in.Srcs()
		if !regSetEqual(got, c.srcs) {
			t.Errorf("case %d (%s): Srcs() = %v, want %v", i, c.in.String(), got, c.srcs)
		}
		gotD := c.in.Dests()
		if !regSetEqual(gotD, c.dests) {
			t.Errorf("case %d (%s): Dests() = %v, want %v", i, c.in.String(), gotD, c.dests)
		}
	}
}

func regSetEqual(a, b []Reg) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[Reg]int{}
	for _, r := range a {
		m[r]++
	}
	for _, r := range b {
		m[r]--
		if m[r] < 0 {
			return false
		}
	}
	return true
}

func randomInstruction(rng *rand.Rand) Instruction {
	var op Op
	for {
		op = Op(1 + rng.Intn(NumOps-1))
		if op.Info().Name != "" {
			break
		}
	}
	randReg := func() Reg {
		switch rng.Intn(4) {
		case 0:
			return R(rng.Intn(NumIntRegs))
		case 1:
			return F(rng.Intn(NumFPRegs))
		case 2:
			return V(rng.Intn(NumVecRegs))
		default:
			return RegNone
		}
	}
	return Instruction{
		Op: op, Rd: randReg(), Ra: randReg(), Rb: randReg(), Rc: randReg(),
		Imm: rng.Int63() - rng.Int63(), HasImm: rng.Intn(2) == 0, BScalar: rng.Intn(2) == 0,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	buf := make([]byte, WordSize)
	for i := 0; i < 2000; i++ {
		in := randomInstruction(rng)
		in.Encode(buf)
		out, err := Decode(buf)
		if err != nil {
			t.Fatalf("decode error on %v: %v", in, err)
		}
		if out != in {
			t.Fatalf("round trip mismatch: in=%+v out=%+v", in, out)
		}
	}
}

func TestEncodeDecodeProgramQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(n uint8) bool {
		code := make([]Instruction, int(n)%37)
		for i := range code {
			code[i] = randomInstruction(rng)
		}
		img := EncodeProgram(code)
		back, err := DecodeProgram(img)
		if err != nil {
			return false
		}
		if len(back) != len(code) {
			return false
		}
		for i := range code {
			if back[i] != code[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(make([]byte, 3)); err == nil {
		t.Error("short buffer: expected error")
	}
	bad := make([]byte, WordSize)
	// opcode 0 (OpInvalid)
	if _, err := Decode(bad); err == nil {
		t.Error("OpInvalid: expected error")
	}
	// out-of-range opcode
	bad[0] = 0xFF
	bad[1] = 0xFF
	if _, err := Decode(bad); err == nil {
		t.Error("huge opcode: expected error")
	}
	// valid opcode, bogus register id (not RegNone, not valid)
	var in Instruction
	in = Instruction{Op: OpAdd, Rd: R(1), Ra: R(2), Rb: R(3)}
	in.Encode(bad)
	bad[3] = 200
	if _, err := Decode(bad); err == nil {
		t.Error("bogus register: expected error")
	}
	if _, err := DecodeProgram(make([]byte, WordSize+1)); err == nil {
		t.Error("odd image size: expected error")
	}
}

func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Instruction
		want string
	}{
		{Instruction{Op: OpAdd, Rd: R(1), Ra: R(2), Rb: R(3)}, "add r1, r2, r3"},
		{Instruction{Op: OpAdd, Rd: R(1), Ra: R(2), HasImm: true, Imm: -4}, "add r1, r2, -4"},
		{Instruction{Op: OpMovI, Rd: R(7), Imm: 99}, "movi r7, 99"},
		{Instruction{Op: OpLd, Rd: R(1), Ra: R(2), Imm: 16}, "ld r1, 16(r2)"},
		{Instruction{Op: OpSt, Rd: R(1), Ra: R(2), Imm: 0}, "st r1, 0(r2)"},
		{Instruction{Op: OpBne, Ra: R(1), Rb: R(0), Imm: 12}, "bne r1, r0, @12"},
		{Instruction{Op: OpJ, Imm: 3}, "j @3"},
		{Instruction{Op: OpVAdd, Rd: V(1), Ra: V(2), Rb: V(3)}, "vadd v1, v2, v3"},
		{Instruction{Op: OpVAdd, Rd: V(1), Ra: V(2), Rb: R(5), BScalar: true}, "vadd.vs v1, v2, r5"},
		{Instruction{Op: OpVFMA, Rd: V(1), Ra: V(2), Rb: V(3), Rc: V(4)}, "vfma v1, v2, v3, v4"},
		{Instruction{Op: OpVLd, Rd: V(0), Ra: R(4)}, "vld v0, (r4)"},
		{Instruction{Op: OpVLdS, Rd: V(0), Ra: R(4), Rb: R(5)}, "vlds v0, (r4), r5"},
		{Instruction{Op: OpVLdX, Rd: V(0), Ra: R(4), Rb: V(6)}, "vldx v0, (r4+v6)"},
		{Instruction{Op: OpVStX, Rd: V(0), Ra: R(4), Rb: V(6)}, "vstx v0, (r4+v6)"},
		{Instruction{Op: OpSetVL, Rd: R(1), Ra: R(2)}, "setvl r1, r2"},
		{Instruction{Op: OpHalt}, "halt"},
		{Instruction{Op: OpMark, Imm: 2}, "mark 2"},
		{Instruction{Op: OpVltCfg, Imm: 4}, "vltcfg 4"},
		{Instruction{Op: OpVRedSum, Rd: R(3), Ra: V(1)}, "vredsum r3, v1"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("disasm: got %q, want %q", got, c.want)
		}
	}
}

func TestDisassemblyNeverEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		in := randomInstruction(rng)
		s := in.String()
		if s == "" || strings.Contains(s, "unknown format") {
			t.Fatalf("bad disassembly for %+v: %q", in, s)
		}
	}
}

func TestBranchTarget(t *testing.T) {
	cases := []struct {
		in     Instruction
		target int
		ok     bool
	}{
		{Instruction{Op: OpBeq, Ra: R(1), Rb: R(2), Imm: 7}, 7, true},
		{Instruction{Op: OpBne, Ra: R(1), Rb: R(2), Imm: -3}, -3, true},
		{Instruction{Op: OpJ, Imm: 12}, 12, true},
		{Instruction{Op: OpJal, Rd: R(1), Imm: 4}, 4, true},
		{Instruction{Op: OpJr, Ra: R(1)}, 0, false},
		{Instruction{Op: OpAdd, Rd: R(1), Ra: R(2), Rb: R(3)}, 0, false},
		{Instruction{Op: OpHalt}, 0, false},
	}
	for _, c := range cases {
		got, ok := c.in.BranchTarget()
		if ok != c.ok || (ok && got != c.target) {
			t.Errorf("%s: BranchTarget() = %d, %v; want %d, %v", c.in.String(), got, ok, c.target, c.ok)
		}
	}
}

func TestSequencingOps(t *testing.T) {
	for _, op := range []Op{OpNop, OpHalt, OpBar, OpMark, OpVltCfg} {
		if !op.Info().Sequencing {
			t.Errorf("%s: not sequencing, want sequencing", op.Info().Name)
		}
	}
	for _, op := range []Op{OpSetVL, OpAdd, OpBeq, OpVAdd} {
		if op.Info().Sequencing {
			t.Errorf("%s: sequencing, want a datapath op", op.Info().Name)
		}
	}
}
