package vlt

// SimulateCell exposes the simulation hook to the external test package,
// so a test can observe every simulation: engine cells and vlt.Run alike.
var SimulateCell = &simulateCell
