package vlt

// SimulateCell exposes the engine's simulation hook to the external test
// package, so a test can observe every cell any engine simulates.
var SimulateCell = &simulateCell
