package ilp

import (
	"snvmm/internal/telemetry"
)

// Solver instrumentation. Unlike the package-global instruments elsewhere,
// the ILP solver is handed its registry per solve (ILPOptions.Telemetry),
// because concurrent solves on different problems are normal and each run's
// searcher resolves its own instrument set once up front.

// ilpTel is the resolved instrument set of one branch-and-bound run.
type ilpTel struct {
	reg *telemetry.Registry

	nodes      *telemetry.Counter // nodes expanded, canonicalization probes included
	incumbents *telemetry.Counter // incumbent improvements accepted

	bestObj  *telemetry.FloatGauge // objective of the current incumbent
	headBnd  *telemetry.FloatGauge // bound of the frontier head (best open node)
	scope    *telemetry.Scope
	incumbMu *telemetry.EventMeta
}

var metaIncumbent = &telemetry.EventMeta{Subsystem: "ilp", Name: "incumbent"}

// newILPTel resolves the solver instruments, all under the "ilp." prefix.
func newILPTel(reg *telemetry.Registry) *ilpTel {
	if reg == nil {
		return nil
	}
	return &ilpTel{
		reg:        reg,
		nodes:      reg.Counter("ilp.nodes"),
		incumbents: reg.Counter("ilp.incumbent_updates"),
		bestObj:    reg.FloatGauge("ilp.best_objective"),
		headBnd:    reg.FloatGauge("ilp.frontier_bound"),
		scope:      reg.Recorder().Scope("ilp"),
		incumbMu:   metaIncumbent,
	}
}
