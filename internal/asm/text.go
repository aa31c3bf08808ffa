package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"vlt/internal/isa"
)

// ParseText assembles a textual program. Each instruction's operands
// follow its opcode's isa.Info.Syntax, the template Instruction.String
// prints from, so Program.Disassemble output reparses to the same code.
// Labels and data directives come on top:
//
//	# comment (also ;)
//	.alloc buf 64          — reserve 64 zero words, symbol "buf"
//	.data  tbl 1 2 3       — initialized words
//	.dataf w   1.5 -2.0    — initialized float64 words
//
//	start:                 — code label
//	    movi r1, 8
//	    movi r2, &tbl      — &name takes a data symbol's address
//	    fmovi f1, 0.25     — a float literal
//	    setvl r3, r1
//	    vld v1, (r2)
//	    ld r4, (r2)        — an omitted offset is 0: (r2) is 0(r2)
//	    viota v3           — viota reads no source register
//	    vadd.vs v2, v1, r1
//	    jal r31, fn        — jal names its link register
//	    beq r1, r0, start  — branch targets are labels (or @index)
//	    halt
//
// Register operands use the disassembler's names (r0-r31, f0-f31,
// v0-v31). The ".vs" suffix selects the vector-scalar form and is
// accepted only on the opcodes that have one (a V in their Syntax); a
// scalar register in that slot implies it.
func ParseText(name, source string) (*Program, error) {
	b := NewBuilder(name)
	labels := map[string]*Label{}
	getLabel := func(n string) *Label {
		if l, ok := labels[n]; ok {
			return l
		}
		l := b.NewLabel(n)
		labels[n] = l
		return l
	}

	for lineNo, raw := range strings.Split(source, "\n") {
		line := raw
		if i := strings.IndexAny(line, "#;"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("asm %q line %d: %s", name, lineNo+1, fmt.Sprintf(format, args...))
		}

		// Directives.
		if strings.HasPrefix(line, ".") {
			fields := strings.Fields(line)
			switch fields[0] {
			case ".alloc":
				if len(fields) != 3 {
					return nil, fail(".alloc wants: .alloc name nwords")
				}
				n, err := strconv.Atoi(fields[2])
				if err != nil || n < 0 {
					return nil, fail("bad .alloc size %q", fields[2])
				}
				b.Alloc(fields[1], n)
			case ".data":
				if len(fields) < 2 {
					return nil, fail(".data wants: .data name v0 v1 ...")
				}
				var words []uint64
				for _, f := range fields[2:] {
					v, err := strconv.ParseInt(f, 0, 64)
					if err != nil {
						return nil, fail("bad .data value %q", f)
					}
					words = append(words, uint64(v))
				}
				b.Data(fields[1], words)
			case ".dataf":
				if len(fields) < 2 {
					return nil, fail(".dataf wants: .dataf name v0 v1 ...")
				}
				var vals []float64
				for _, f := range fields[2:] {
					v, err := strconv.ParseFloat(f, 64)
					if err != nil {
						return nil, fail("bad .dataf value %q", f)
					}
					vals = append(vals, v)
				}
				b.DataF(fields[1], vals)
			default:
				return nil, fail("unknown directive %q", fields[0])
			}
			continue
		}

		// Labels (possibly followed by an instruction on the same line).
		for {
			i := strings.Index(line, ":")
			if i < 0 || strings.ContainsAny(line[:i], " \t,(") {
				break
			}
			b.Bind(getLabel(line[:i]))
			line = strings.TrimSpace(line[i+1:])
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}

		if err := parseInstruction(b, line, getLabel); err != nil {
			return nil, fail("%v", err)
		}
	}
	return b.Assemble()
}

// opsByName maps mnemonics to opcodes.
var opsByName = func() map[string]isa.Op {
	m := make(map[string]isa.Op, isa.NumOps)
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		if inf := op.Info(); inf.Name != "" {
			m[inf.Name] = op
		}
	}
	return m
}()

// parseInstruction matches the operands against the opcode's
// isa.Info.Syntax, the template the disassembler prints from: a literal
// byte must come next (spaces between tokens are free), and a field runs
// up to the template's next literal, or to the end of the line.
func parseInstruction(b *Builder, line string, getLabel func(string) *Label) error {
	mnemonic, rest := line, ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnemonic, rest = line[:i], line[i+1:]
	}
	mnemonic, vs := strings.CutSuffix(mnemonic, ".vs")
	op, ok := opsByName[mnemonic]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	syntax := op.Info().Syntax
	if vs && !strings.Contains(syntax, "V") {
		return fmt.Errorf("%s has no vector-scalar (.vs) form", mnemonic)
	}
	operands := strings.TrimSpace(rest)
	rest = strings.TrimSuffix(operands, ",") // a trailing comma is tolerated
	mismatch := func() error {
		return fmt.Errorf("%s wants operands %q, got %q", mnemonic, syntax, operands)
	}

	// Unused register fields stay at their zero value, matching the
	// programmatic Builder's composite literals.
	in := isa.Instruction{Op: op, BScalar: vs}
	var target *Label
	for i := 0; i < len(syntax); i++ {
		c := syntax[i]
		if strings.IndexByte("dabcBVift", c) < 0 {
			if rest = strings.TrimLeft(rest, " \t"); c != ' ' {
				if rest == "" || rest[0] != c {
					return mismatch()
				}
				rest = rest[1:]
			}
			continue
		}
		field := rest
		if i+1 < len(syntax) {
			end := strings.IndexByte(rest, syntax[i+1])
			if end < 0 {
				return mismatch()
			}
			field, rest = rest[:end], rest[end:]
		} else {
			rest = ""
		}
		field = strings.TrimSpace(field)
		if field == "" {
			if c == 'i' && strings.HasPrefix(syntax[i+1:], "(") {
				continue // "(r2)" is "0(r2)"
			}
			return mismatch()
		}
		var err error
		switch c {
		case 'i':
			in.Imm, err = b.immediate(field)
		case 'f':
			f, ferr := strconv.ParseFloat(field, 64)
			if ferr != nil {
				return fmt.Errorf("bad float immediate %q", field)
			}
			in.Imm = int64(math.Float64bits(f))
		case 't':
			if idx, ok := strings.CutPrefix(field, "@"); ok {
				if in.Imm, err = strconv.ParseInt(idx, 10, 64); err != nil {
					return fmt.Errorf("bad absolute target %q", field)
				}
			} else {
				target = getLabel(field)
			}
		case 'B':
			if r, rerr := parseReg(field); rerr == nil {
				in.Rb = r
			} else if in.Imm, err = b.immediate(field); err != nil {
				return fmt.Errorf("operand %q is neither register nor immediate", field)
			} else {
				in.HasImm = true
			}
		default:
			*in.Field(c), err = parseReg(field)
			if c == 'V' && in.Rb.IsScalar() {
				in.BScalar = true // a scalar b is the vector-scalar form, ".vs" or not
			}
		}
		if err != nil {
			return err
		}
	}
	if strings.TrimSpace(rest) != "" {
		return mismatch()
	}
	if target != nil {
		b.emitBranch(in, target)
	} else {
		b.Emit(in)
	}
	return nil
}

// immediate parses an integer immediate: a Go integer literal, or
// &name for a data symbol's address.
func (b *Builder) immediate(s string) (int64, error) {
	if sym, ok := strings.CutPrefix(s, "&"); ok {
		addr, found := b.symbols[sym]
		if !found {
			return 0, fmt.Errorf("unknown symbol %q (declare data before use)", sym)
		}
		return int64(addr), nil
	}
	return strconv.ParseInt(s, 0, 64)
}

func parseReg(s string) (isa.Reg, error) {
	s = strings.TrimSpace(s)
	if s == "vl" {
		return isa.RegVL, nil
	}
	if len(s) < 2 {
		return isa.RegNone, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil {
		return isa.RegNone, fmt.Errorf("bad register %q", s)
	}
	switch s[0] {
	case 'r':
		if n < 0 || n >= isa.NumIntRegs {
			return isa.RegNone, fmt.Errorf("register %q out of range", s)
		}
		return isa.R(n), nil
	case 'f':
		if n < 0 || n >= isa.NumFPRegs {
			return isa.RegNone, fmt.Errorf("register %q out of range", s)
		}
		return isa.F(n), nil
	case 'v':
		if n < 0 || n >= isa.NumVecRegs {
			return isa.RegNone, fmt.Errorf("register %q out of range", s)
		}
		return isa.V(n), nil
	}
	return isa.RegNone, fmt.Errorf("bad register %q", s)
}
