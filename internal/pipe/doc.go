// Package pipe holds the types shared between the timing pipelines: the
// in-flight micro-op record used by the scalar units, the vector control
// logic and the lane cores, the arena that recycles it, the
// fixed-capacity ring their queues are built on, a bimodal branch
// predictor, and Frontend: one hardware thread's fetch side (fetch
// gating, the fetch step and last-writer tracking), embedded by each
// scalar-unit SMT context and each lane core.
package pipe
