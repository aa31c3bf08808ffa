package asm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"sort"

	"vlt/internal/isa"
)

// Program image container: a self-contained binary serialization of an
// assembled Program (code, data segments and symbol table), so programs
// can be assembled once (cmd/vltasm) and executed or disassembled later
// (cmd/vltrun, cmd/vltdis).
//
// Layout (all little-endian):
//
//	magic   "VLTP"            4 bytes
//	version uint32            currently 1
//	nameLen uint32, name      UTF-8
//	codeLen uint32            instruction count
//	code    codeLen * isa.WordSize bytes
//	nseg    uint32
//	  per segment: addr uint64, nwords uint32, words...
//	nsym    uint32
//	  per symbol: nameLen uint32, name, addr uint64
//	dataEnd uint64

const (
	imageMagic   = "VLTP"
	imageVersion = 1
)

// SaveImage serializes the program.
func (p *Program) SaveImage() []byte {
	var buf bytes.Buffer
	buf.WriteString(imageMagic)
	writeU32 := func(v uint32) { binary.Write(&buf, binary.LittleEndian, v) }
	writeU64 := func(v uint64) { binary.Write(&buf, binary.LittleEndian, v) }
	writeStr := func(s string) { writeU32(uint32(len(s))); buf.WriteString(s) }

	writeU32(imageVersion)
	writeStr(p.Name)
	writeU32(uint32(len(p.Code)))
	buf.Write(isa.EncodeProgram(p.Code))
	writeU32(uint32(len(p.Segments)))
	for _, seg := range p.Segments {
		writeU64(seg.Addr)
		writeU32(uint32(len(seg.Words)))
		for _, w := range seg.Words {
			writeU64(w)
		}
	}
	// Deterministic symbol order.
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)
	writeU32(uint32(len(names)))
	for _, n := range names {
		writeStr(n)
		writeU64(p.Symbols[n])
	}
	writeU64(p.dataEnd)
	return buf.Bytes()
}

// Load reads the program at path: a binary image (SaveImage's output,
// told apart by its magic) or assembly text.
func Load(path string) (*Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(src, []byte(imageMagic)) {
		return LoadImage(src)
	}
	return ParseText(path, string(src))
}

// LoadImage deserializes a program image produced by SaveImage.
func LoadImage(data []byte) (*Program, error) {
	r := bytes.NewReader(data)
	magic := make([]byte, 4)
	if _, err := r.Read(magic); err != nil || string(magic) != imageMagic {
		return nil, fmt.Errorf("asm: not a program image (bad magic)")
	}
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(r, binary.LittleEndian, &v)
		return v, err
	}
	readU64 := func() (uint64, error) {
		var v uint64
		err := binary.Read(r, binary.LittleEndian, &v)
		return v, err
	}
	readStr := func() (string, error) {
		n, err := readU32()
		if err != nil {
			return "", err
		}
		if int(n) > r.Len() {
			return "", fmt.Errorf("asm: truncated string (%d bytes)", n)
		}
		b := make([]byte, n)
		if _, err := r.Read(b); err != nil {
			return "", err
		}
		return string(b), nil
	}

	version, err := readU32()
	if err != nil || version != imageVersion {
		return nil, fmt.Errorf("asm: unsupported image version %d", version)
	}
	p := &Program{Symbols: map[string]uint64{}}
	if p.Name, err = readStr(); err != nil {
		return nil, fmt.Errorf("asm: bad name: %w", err)
	}
	codeLen, err := readU32()
	if err != nil {
		return nil, err
	}
	codeBytes := int(codeLen) * isa.WordSize
	if codeBytes > r.Len() {
		return nil, fmt.Errorf("asm: truncated code section")
	}
	raw := make([]byte, codeBytes)
	if _, err := r.Read(raw); err != nil {
		return nil, err
	}
	if p.Code, err = isa.DecodeProgram(raw); err != nil {
		return nil, err
	}
	nseg, err := readU32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nseg; i++ {
		var seg Segment
		if seg.Addr, err = readU64(); err != nil {
			return nil, err
		}
		n, err := readU32()
		if err != nil {
			return nil, err
		}
		if int(n)*8 > r.Len() {
			return nil, fmt.Errorf("asm: truncated segment %d", i)
		}
		seg.Words = make([]uint64, n)
		for j := range seg.Words {
			if seg.Words[j], err = readU64(); err != nil {
				return nil, err
			}
		}
		p.Segments = append(p.Segments, seg)
	}
	nsym, err := readU32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < nsym; i++ {
		name, err := readStr()
		if err != nil {
			return nil, err
		}
		addr, err := readU64()
		if err != nil {
			return nil, err
		}
		p.Symbols[name] = addr
	}
	if p.dataEnd, err = readU64(); err != nil {
		return nil, err
	}
	return p, nil
}

// Disassemble renders the program as assembly text that ParseText
// accepts (data directives, then code with absolute branch targets).
func (p *Program) Disassemble() string {
	var buf bytes.Buffer
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return p.Symbols[names[i]] < p.Symbols[names[j]] })
	segByAddr := map[uint64]Segment{}
	for _, seg := range p.Segments {
		segByAddr[seg.Addr] = seg
	}
	for _, n := range names {
		seg, ok := segByAddr[p.Symbols[n]]
		if !ok {
			continue
		}
		allZero := true
		for _, w := range seg.Words {
			if w != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			fmt.Fprintf(&buf, ".alloc %s %d\n", n, len(seg.Words))
			continue
		}
		fmt.Fprintf(&buf, ".data %s", n)
		for _, w := range seg.Words {
			fmt.Fprintf(&buf, " %d", int64(w))
		}
		buf.WriteByte('\n')
	}
	buf.WriteByte('\n')
	for i := range p.Code {
		fmt.Fprintf(&buf, "    %s    # @%d\n", p.Code[i].String(), i)
	}
	return buf.String()
}
