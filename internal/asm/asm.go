package asm

import (
	"fmt"
	"math"

	"vlt/internal/isa"
)

// Register conventions shared by all workloads.
var (
	// RegTID reads the zero-based thread id (preset at thread reset).
	RegTID = isa.R(30)
	// RegNTH reads the total thread count (preset at thread reset).
	RegNTH = isa.R(29)
	// RegZero always reads zero (hardwired in the functional simulator).
	RegZero = isa.R(0)
)

// DataBase is the first byte address used for allocated data. Code
// addresses and data addresses are disjoint spaces: code is indexed by
// instruction number, data by byte address.
const DataBase uint64 = 1 << 16

// Segment is a contiguous run of initialized 64-bit words in the program's
// initial memory image.
type Segment struct {
	Addr  uint64 // byte address of the first word (8-byte aligned)
	Words []uint64
}

// Program is an assembled SPMD program: code, the initial memory image and
// the symbol table of allocated data.
type Program struct {
	Name     string
	Code     []isa.Instruction
	Segments []Segment
	Symbols  map[string]uint64 // name -> byte address
	dataEnd  uint64
}

// UnknownSymbolError reports a lookup of a data symbol the program never
// allocated.
type UnknownSymbolError struct {
	Symbol  string
	Program string
}

func (e *UnknownSymbolError) Error() string {
	return fmt.Sprintf("asm: unknown symbol %q in program %q", e.Symbol, e.Program)
}

// Lookup returns the byte address of a named allocation.
func (p *Program) Lookup(name string) (uint64, error) {
	addr, ok := p.Symbols[name]
	if !ok {
		return 0, &UnknownSymbolError{Symbol: name, Program: p.Name}
	}
	return addr, nil
}

// Symbol returns the byte address of a named allocation, panicking with
// an *UnknownSymbolError if the name is unknown (a programming error in
// the workload; callers that handle user input use Lookup).
func (p *Program) Symbol(name string) uint64 {
	addr, err := p.Lookup(name)
	if err != nil {
		panic(err)
	}
	return addr
}

// DataEnd returns the first unused byte address after all allocations.
func (p *Program) DataEnd() uint64 { return p.dataEnd }

// VectorFree reports whether the program has no instruction the vector
// unit executes or configures (no vector op, setvl or vltcfg), so its
// cycles and retired count cannot depend on the lane count.
func (p *Program) VectorFree() bool {
	for _, in := range p.Code {
		if in.Op.Info().Vector || in.Op == isa.OpSetVL || in.Op == isa.OpVltCfg {
			return false
		}
	}
	return true
}

// Label is a forward-referenceable code position.
type Label struct {
	name  string
	index int // -1 until bound
	id    int
}

// Builder assembles a Program.
type Builder struct {
	name    string
	code    []isa.Instruction
	patches []patch
	labels  []*Label

	segments []Segment
	symbols  map[string]uint64
	next     uint64

	err error
}

type patch struct {
	inst  int
	label *Label
}

// NewBuilder returns an empty Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, symbols: map[string]uint64{}, next: DataBase}
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("asm %q: %s", b.name, fmt.Sprintf(format, args...))
	}
}

// NewLabel creates an unbound label.
func (b *Builder) NewLabel(name string) *Label {
	l := &Label{name: name, index: -1, id: len(b.labels)}
	b.labels = append(b.labels, l)
	return l
}

// Bind binds the label to the current position. A label may be bound once.
func (b *Builder) Bind(l *Label) {
	if l.index >= 0 {
		b.fail("label %q bound twice", l.name)
		return
	}
	l.index = len(b.code)
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Instruction) {
	b.code = append(b.code, in)
}

func (b *Builder) emitBranch(in isa.Instruction, l *Label) {
	b.patches = append(b.patches, patch{inst: len(b.code), label: l})
	b.code = append(b.code, in)
}

// --- data allocation ---

// Alloc reserves nwords zero-initialized words under name and returns the
// byte address. Allocations are 64-byte aligned so distinct arrays start on
// distinct cache lines.
func (b *Builder) Alloc(name string, nwords int) uint64 {
	return b.Data(name, make([]uint64, nwords))
}

// Data allocates and initializes a named array of words, returning its
// byte address.
func (b *Builder) Data(name string, words []uint64) uint64 {
	if _, dup := b.symbols[name]; dup {
		b.fail("duplicate symbol %q", name)
		return 0
	}
	addr := b.next
	b.symbols[name] = addr
	b.segments = append(b.segments, Segment{Addr: addr, Words: words})
	size := uint64(len(words)) * 8
	b.next = (addr + size + 63) &^ 63
	if b.next == addr { // zero-length allocation still consumes a line
		b.next += 64
	}
	return addr
}

// DataF allocates and initializes a named array of float64 values.
func (b *Builder) DataF(name string, vals []float64) uint64 {
	words := make([]uint64, len(vals))
	for i, v := range vals {
		words[i] = math.Float64bits(v)
	}
	return b.Data(name, words)
}

// Assemble resolves labels and returns the finished Program.
func (b *Builder) Assemble() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, p := range b.patches {
		if p.label.index < 0 {
			return nil, fmt.Errorf("asm %q: unbound label %q", b.name, p.label.name)
		}
		b.code[p.inst].Imm = int64(p.label.index)
	}
	hasHalt := false
	for i := range b.code {
		if b.code[i].Op == isa.OpHalt {
			hasHalt = true
			break
		}
	}
	if !hasHalt {
		return nil, fmt.Errorf("asm %q: program contains no halt", b.name)
	}
	return &Program{
		Name:     b.name,
		Code:     b.code,
		Segments: b.segments,
		Symbols:  b.symbols,
		dataEnd:  b.next,
	}, nil
}

// MustAssemble is Assemble that panics on error, for use in workload
// constructors where a failure is a programming bug.
func (b *Builder) MustAssemble() *Program {
	p, err := b.Assemble()
	if err != nil {
		panic(err)
	}
	return p
}
