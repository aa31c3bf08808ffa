// Package report renders fixed-width text tables for the experiment
// harness (cmd/vltexp) and the String methods of the public experiment
// result types.
//
// Key entry points: Table (fixed-width table builder), Metrics and Bar
// (aligned key/value and sparkline rendering), and Diagnose, the shared
// error renderer every command and the vltd daemon use to turn internal
// error types (vet.Error, guard faults, runner panics) into actionable
// text with remediation hints.
package report
