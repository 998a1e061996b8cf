package xbar

import (
	"sync/atomic"

	"snvmm/internal/telemetry"
	"snvmm/internal/telemetry/trace"
)

// Package-level instrumentation. The calibration cache is process-wide, so
// its instruments are too: SetTelemetry publishes a resolved instrument set
// through an atomic pointer and every hot path pays one load-and-branch
// when telemetry is off. Only aggregate counts are exported — nothing keyed
// by PoE, seed, or cell state.

// xbarTel is the resolved instrument set.
type xbarTel struct {
	reg *telemetry.Registry

	cacheHits   *telemetry.Counter // CalibrationFor served from the shared cache
	cacheMisses *telemetry.Counter // CalibrationFor built a new calibration
	builds      *telemetry.Counter // per-PoE characterizations actually run
	sfWaits     *telemetry.Counter // ensure() blocked on another goroutine's build
	warmPoes    *telemetry.Counter // PoEs swept by WarmAll workers

	// Sketch-path truncation accounting: complement cells whose sensitivity
	// was computed vs cells dropped by the adaptive ring sweep.
	cellsVisited *telemetry.Counter
	cellsSkipped *telemetry.Counter

	scope *telemetry.Scope
}

var xtel atomic.Pointer[xbarTel]

var metaWarmAll = &telemetry.EventMeta{Subsystem: "xbar", Name: "warm_all"}

// Causal-trace call sites. WarmAll emits a warm_all root plus one
// warm_worker span per sweep goroutine, on lanes warmLaneBase+w so the
// workers render as parallel tracks without colliding with the SPECU's
// caller and shard lanes.
var (
	xtrace atomic.Pointer[trace.Tracer]

	traceMetaWarmAll    = &trace.SpanMeta{Subsystem: "xbar", Name: "warm_all"}
	traceMetaWarmWorker = &trace.SpanMeta{Subsystem: "xbar", Name: "warm_worker"}
)

const warmLaneBase = 1000

// SetTracer attaches (or, with nil, detaches) the package's causal
// tracer. WarmAll sweeps become roots; nothing else in the package
// originates traces — the data path's pulse trains are children of the
// SPECU contexts threaded in by the caller.
func SetTracer(tr *trace.Tracer) {
	if tr == nil {
		xtrace.Store(nil)
		return
	}
	xtrace.Store(tr)
}

// SetTelemetry attaches (or, with nil, detaches) the package's calibration
// instruments, all under the "xbar.cal." prefix.
func SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		xtel.Store(nil)
		return
	}
	xtel.Store(&xbarTel{
		reg:          reg,
		cacheHits:    reg.Counter("xbar.cal.cache_hits"),
		cacheMisses:  reg.Counter("xbar.cal.cache_misses"),
		builds:       reg.Counter("xbar.cal.builds"),
		sfWaits:      reg.Counter("xbar.cal.singleflight_waits"),
		warmPoes:     reg.Counter("xbar.cal.warm_poes"),
		cellsVisited: reg.Counter("xbar.cal.cells_visited"),
		cellsSkipped: reg.Counter("xbar.cal.cells_skipped"),
		scope:        reg.Recorder().Scope("xbar"),
	})
}
