// Package isa defines the instruction set architecture simulated by this
// repository: a Cray-X1-inspired vector ISA with 32 scalar integer
// registers, 32 scalar floating-point registers, and 32 vector registers of
// up to MaxVL 64-bit elements each.
//
// The package is purely declarative: it defines registers, opcodes,
// per-opcode operand syntax and execution metadata (functional-unit class
// and latency), a fixed-width binary encoding, and a disassembler. The
// operand syntax (Info.Syntax) is the one the text assembler in
// internal/asm parses.
// Functional semantics live in internal/vm and timing semantics in
// internal/scalar, internal/vcl and internal/lane.
package isa
