// Command vltlint enforces the repository's static-analysis contracts
// (internal/lint) on its own Go source: the determinism rules on the
// simulation core, no goroutine outside internal/runner and no blocking
// operation under a held mutex module-wide, deadline propagation on the
// serving layer, and metrics-registration exhaustiveness. It exits 1
// when any finding is reported and is wired into scripts/check.sh as a
// tier-1 gate.
//
// Usage:
//
//	vltlint [-root dir] [-docs] [-json] [patterns...]
//
// Patterns are package directories relative to the module root or the
// recursive form "./..." (the default). With -docs it additionally
// enforces the documentation contract: every internal/* and cmd/*
// package must carry a doc.go with a package doc comment (rule
// "pkg-doc"). With -json it emits the findings and per-rule counts as
// a machine-readable report (parity with vltvet -json).
//
// Exit codes: 0 clean, 1 findings, 2 usage or analysis error.
package main
