// Package sched centralizes the worker-count policy shared by the repo's
// CPU-bound parallel paths (the SPECU's batch helpers, simulation sweeps, the
// WarmAll characterization fan-out, the Monte-Carlo sampler).
//
// Every one of those paths runs pure CPU work, so goroutines beyond the
// schedulable parallelism only add context-switch and queue-contention
// overhead — BENCH_specu.json measured workers=8 sharded reads at 160 µs vs
// 117 µs sequential on a 1-vCPU host before the clamp was introduced. The
// clamp used to be copy-pasted per call site; this package is the single
// definition, and the SPECU's helper budget is sized from it.
package sched

import "runtime"

// Workers resolves a requested worker count against the host's schedulable
// parallelism: req <= 0 selects GOMAXPROCS, and larger requests are clamped
// to it. The result is always >= 1.
func Workers(req int) int {
	maxp := runtime.GOMAXPROCS(0)
	if req <= 0 || req > maxp {
		return maxp
	}
	return req
}

// WorkersFor is Workers additionally capped at the number of independent
// work items (items <= 0 leaves the count uncapped): spinning up more
// goroutines than there are items buys nothing and costs their startup.
func WorkersFor(req, items int) int {
	w := Workers(req)
	if items > 0 && w > items {
		w = items
	}
	return w
}
