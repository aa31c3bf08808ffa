// Command vltbench is the repository's benchmark. It drives the simulator
// (package vlt, internal/core) and the vltd serving stack (internal/serve,
// internal/store) from outside, through their entry points, over four
// fixed workloads; checks every output against the goldens in testdata/;
// and prints each metric by name with its unit.
//
// It is its own module, so the main module's build and tests never see
// it. Run it from the repository root through the wrapper, which builds
// it first:
//
//	bash bench/run.sh -workload reproduce -seed 1 -seconds 10
//	bash bench/run.sh -workload all -seed 1 -out bench/records/run.json
//	bash bench/run.sh -workload serve-hot -trace 1
//	bash bench/run.sh -compare a1.json a2.json -- b1.json b2.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads, the metrics and how to compare two commits.
package main
