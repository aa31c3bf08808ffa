package asm

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vlt/internal/isa"
)

func sampleProgram(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("sample")
	b.Data("tbl", []uint64{1, 2, 3})
	b.Alloc("out", 4)
	loop := b.NewLabel("loop")
	b.MovI(isa.R(1), 3)
	b.Bind(loop)
	b.SubI(isa.R(1), isa.R(1), 1)
	b.Bne(isa.R(1), RegZero, loop)
	b.Halt()
	p, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestImageRoundTrip(t *testing.T) {
	p := sampleProgram(t)
	img := p.SaveImage()
	back, err := LoadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != p.Name {
		t.Errorf("name %q, want %q", back.Name, p.Name)
	}
	if len(back.Code) != len(p.Code) {
		t.Fatalf("code length %d, want %d", len(back.Code), len(p.Code))
	}
	for i := range p.Code {
		if back.Code[i] != p.Code[i] {
			t.Errorf("instruction %d differs: %+v vs %+v", i, back.Code[i], p.Code[i])
		}
	}
	if len(back.Segments) != len(p.Segments) {
		t.Fatalf("segments %d, want %d", len(back.Segments), len(p.Segments))
	}
	for i, seg := range p.Segments {
		if back.Segments[i].Addr != seg.Addr || len(back.Segments[i].Words) != len(seg.Words) {
			t.Errorf("segment %d geometry differs", i)
		}
	}
	if back.Symbol("tbl") != p.Symbol("tbl") || back.Symbol("out") != p.Symbol("out") {
		t.Error("symbols differ")
	}
	if back.DataEnd() != p.DataEnd() {
		t.Errorf("dataEnd %d, want %d", back.DataEnd(), p.DataEnd())
	}
}

func TestImageRejectsCorruption(t *testing.T) {
	p := sampleProgram(t)
	img := p.SaveImage()
	cases := [][]byte{
		img[:3],                            // truncated magic
		append([]byte("XXXX"), img[4:]...), // bad magic
		img[:12],                           // truncated header
		img[:len(img)-4],                   // truncated tail
	}
	for i, c := range cases {
		if _, err := LoadImage(c); err == nil {
			t.Errorf("case %d: corrupted image accepted", i)
		}
	}
	// Bad version.
	bad := append([]byte{}, img...)
	bad[4] = 99
	if _, err := LoadImage(bad); err == nil {
		t.Error("bad version accepted")
	}
}

// TestLoadSniffsFormat: Load reads an image file and a text file of the
// same program to the same code, and reports an unreadable path.
func TestLoadSniffsFormat(t *testing.T) {
	p := sampleProgram(t)
	dir := t.TempDir()
	img, text := filepath.Join(dir, "p.vltp"), filepath.Join(dir, "p.vasm")
	if err := os.WriteFile(img, p.SaveImage(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(text, []byte(p.Disassemble()), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{img, text} {
		got, err := Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", path, err)
		}
		if !slices.Equal(got.Code, p.Code) {
			t.Errorf("Load(%s): code differs from the assembled program", path)
		}
	}
	if _, err := Load(filepath.Join(dir, "missing.vasm")); err == nil {
		t.Error("Load of a missing file succeeded")
	}
}

func TestDisassembleIsReparsable(t *testing.T) {
	p := sampleProgram(t)
	text := p.Disassemble()
	if !strings.Contains(text, ".data tbl 1 2 3") || !strings.Contains(text, ".alloc out 4") {
		t.Errorf("disassembly missing data directives:\n%s", text)
	}
	back, err := ParseText("reparsed", text)
	if err != nil {
		t.Fatalf("disassembly does not reparse: %v\n%s", err, text)
	}
	if len(back.Code) != len(p.Code) {
		t.Fatalf("reparsed code length %d, want %d", len(back.Code), len(p.Code))
	}
	for i := range p.Code {
		if back.Code[i] != p.Code[i] {
			t.Errorf("instruction %d differs after reparse: %v vs %v",
				i, back.Code[i].String(), p.Code[i].String())
		}
	}
}
