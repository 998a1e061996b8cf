package circuit

import (
	"sync/atomic"

	"snvmm/internal/telemetry"
)

// Package-level instrumentation of the solver reuse structure: how often a
// base system is factored from scratch (FactorSystem), versus how often a
// workspace answers a solve by refactoring its dense Cholesky in place or
// by a pattern-reusing sparse CG solve (whose warm-start rate shows up in
// the linalg.cg.* counters).

// circuitTel is the resolved instrument set.
type circuitTel struct {
	factorSystems  *telemetry.Counter // full base factorizations (Sherman-Morrison root)
	denseRefactors *telemetry.Counter // workspace dense solves (Cholesky refactor per call)
	sparseSolves   *telemetry.Counter // workspace sparse solves (CSR template reuse + CG)
	sketchFactors  *telemetry.Counter // once-per-device Green-table factorizations (FactorSketch)
	sketchProbes   *telemetry.Counter // probe columns solved while building sketches

	// Sketch backend selection and hierarchical-factorization shape: which
	// backend FactorSketch built, the nested-dissection depth of the
	// last hierarchical factor, and how many Green-table entries were
	// actually materialized versus the dense np^2+ns*np+ns^2 equivalent
	// (the block-sparse fill of the truncation-radius tables).
	sketchDense      *telemetry.Counter
	sketchHier       *telemetry.Counter
	sketchDepth      *telemetry.Gauge
	sketchTableFill  *telemetry.Gauge
	sketchTableDense *telemetry.Gauge
	sketchFactorFill *telemetry.Gauge
}

var ctel atomic.Pointer[circuitTel]

// SetTelemetry attaches (or, with nil, detaches) the solver-reuse
// instruments, all under the "circuit." prefix.
func SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		ctel.Store(nil)
		return
	}
	ctel.Store(&circuitTel{
		factorSystems:  reg.Counter("circuit.factor_systems"),
		denseRefactors: reg.Counter("circuit.ws.dense_refactors"),
		sparseSolves:   reg.Counter("circuit.ws.sparse_solves"),
		sketchFactors:  reg.Counter("circuit.sketch.factors"),
		sketchProbes:   reg.Counter("circuit.sketch.probe_solves"),

		sketchDense:      reg.Counter("circuit.sketch.backend_dense"),
		sketchHier:       reg.Counter("circuit.sketch.backend_hier"),
		sketchDepth:      reg.Gauge("circuit.sketch.nd_depth"),
		sketchTableFill:  reg.Gauge("circuit.sketch.table_entries"),
		sketchTableDense: reg.Gauge("circuit.sketch.table_entries_dense"),
		sketchFactorFill: reg.Gauge("circuit.sketch.factor_nnz"),
	})
}
