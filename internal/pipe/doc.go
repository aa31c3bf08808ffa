// Package pipe holds the types shared between the timing pipelines: the
// in-flight micro-op record used by the scalar units, the vector control
// logic and the lane cores; the one Arena per machine that holds every
// uop, named by a UopID handle, and whose Clone is a machine fork's
// copy of the whole in-flight graph. Arena.Complete is the one writer
// of a uop's DoneCycle, and wakes the consumers Arena.Depend linked to
// it through wait lists kept inside the uops, so Uop.ReadyCycle is an
// O(1) read and a parked consumer is handed back through Arena.Wake.
// The package also holds the fixed-capacity ring of handles the
// pipeline queues are built on; a bimodal branch predictor; and Frontend:
// one hardware thread's fetch side (fetch gating, the fetch step and
// last-writer tracking), embedded by each scalar-unit SMT context and
// each lane core.
package pipe
