// Package guard hardens the simulation core: a forward-progress watchdog
// that turns livelock and deadlock into typed, diagnosable errors, and a
// runtime invariant auditor that cross-checks the timing models' internal
// accounting every AuditEvery cycles while they run. The machine carries
// no fault hook: core's fault-matrix test stops a machine, breaks one
// structure through state the core package already reaches, and proves
// each detector fires.
//
// The paper's proprietary X1 simulator was validated against real
// hardware; this rebuild has no such oracle, so the guard machinery is the
// substitute: any drift between a structure's occupancy and its counters,
// any stuck scoreboard entry or lost completion, aborts the run loudly
// with the cycle, the structure and a full pipeline dump instead of
// corrupting a figure or hanging forever.
package guard
