// Package lint is a multi-pass static-analysis suite over the
// repository's own Go source, built only on the standard library
// (go/ast, go/parser, go/types, with a lenient module-local importer
// that resolves vlt/... packages from source and stubs the standard
// library).
//
// Determinism passes (the original contract — the north-star result,
// byte-stable simulation output under heavy parallel traffic, holds
// only if the sim core never consults a nondeterministic source):
//
//   - wall-clock, math-rand, map-range: no time.Now and friends, no
//     math/rand, no range over a map inside the simulation core
//     packages (map iteration order is runtime-randomized; sorted-key
//     helpers are the sanctioned replacement);
//   - rand-global: inside internal/search, internal/netfault and
//     internal/vltclient, which may build explicitly seeded sources,
//     every draw from the process-global source is banned
//     (rand.Intn, rand.Perm, ...) — only rand.New and rand.NewSource
//     are permitted;
//   - goroutine: no goroutine spawns outside internal/runner — the
//     audited worker pool is the sanctioned home for concurrency. A
//     goroutine finding cannot be suppressed: an ignore directive for
//     it matches nothing and is itself an unused-ignore finding.
//
// Concurrency-safety passes (the serving layer is supposed to be
// concurrent, so its contract is discipline rather than abstinence):
//
//   - lock-blocking: a flow-sensitive walk tracks which
//     sync.Mutex/RWMutex fields are held and flags any blocking
//     operation — channel ops, defaultless select, net/http round
//     trips, known blocking methods — performed while one is. A method
//     whose doc comment carries "//vltlint:heldby <mutexField>"
//     declares the callers-hold-the-lock convention and is analyzed
//     with that mutex held. Unguarded field accesses are left to
//     go test -race, which kills every such mutant the lint could
//     (testdata/mutants/record.json).
//   - ctx-background, ctx-propagate: in the serving packages (serve,
//     fleet, vltclient), context.Background and context.TODO are
//     banned, and a function that receives a context must thread a
//     derived context into every blocking call it makes.
//   - metrics-registered: every plain uint64 counter field of a
//     struct with a convention-named registrar (register /
//     registerMetrics / RegisterMetrics taking *stats.Registry) must
//     be registered, so no counter is invisible in /metricsz.
//
// A finding is suppressed with "//vltlint:ignore <rule> [reason]" on
// its own line or the line above; the directive is scoped to one rule
// on one line, and a directive that suppresses nothing is itself a
// finding (unused-ignore), so the audit trail cannot rot silently.
//
// Beyond code rules, CheckDocs enforces the documentation contract
// (pkg-doc): every internal/* and cmd/* package carries a doc.go with
// a package doc comment. Key types: Finding (one violation, with
// file, position, rule and message) and the Rule* name constants.
// DESIGN.md §9 and §14 give the rationale, the known blind spots and
// the mutant record each kept rule is measured by.
package lint
