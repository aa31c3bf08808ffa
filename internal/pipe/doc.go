// Package pipe holds the types shared between the timing pipelines: the
// in-flight micro-op record used by the scalar units, the vector control
// logic and the lane cores, the arena that recycles it, the
// fixed-capacity ring their queues are built on, and a bimodal branch
// predictor.
package pipe
