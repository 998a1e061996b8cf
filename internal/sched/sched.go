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

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count against the host's schedulable
// parallelism (limit): req <= 0 selects it, and larger requests are clamped
// to it. The result is always >= 1.
func Workers(req int) int {
	maxp := limit()
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

// limit returns the host's schedulable parallelism: the smallest of
// GOMAXPROCS, the CPU count and the cgroup CPU quota. A GOMAXPROCS raised
// above the CPUs the process may use (go test -cpu 4 on a 2-vCPU host)
// only oversubscribes them, and a container whose quota is below its
// visible CPU count gets that many cores' worth of time, no more.
func limit() int {
	cpus := hostCPUs()
	if n := pinned.Load(); n > 0 {
		cpus = int(n)
	}
	return max(1, min(runtime.GOMAXPROCS(0), cpus))
}

// cpuMaxPath is the cgroup v2 CPU bandwidth limit of the process's cgroup.
const cpuMaxPath = "/sys/fs/cgroup/cpu.max"

// hostCPUs is the CPU count capped by the cgroup quota, read once: neither
// changes under a running process in practice, and Workers is called per
// batch.
var hostCPUs = sync.OnceValue(func() int { return cpusUnder(runtime.NumCPU(), cpuMaxPath) })

// cpusUnder returns n capped by the quota of the cpu.max file at path; a
// missing or unreadable file, like "max", caps nothing.
func cpusUnder(n int, path string) int {
	b, err := os.ReadFile(path)
	if err != nil {
		return n
	}
	if q, ok := quotaCPUs(string(b)); ok && q < n {
		return q
	}
	return n
}

// quotaCPUs parses the contents of a cgroup v2 cpu.max file, "$QUOTA
// $PERIOD" in microseconds, into whole CPUs: ceil(quota/period), since a
// fractional quota still lets that many goroutines run at once. ok is
// false when there is no quota ("max") or the contents do not parse.
func quotaCPUs(s string) (cpus int, ok bool) {
	f := strings.Fields(s)
	if len(f) != 2 || f[0] == "max" {
		return 0, false
	}
	quota, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil || quota <= 0 {
		return 0, false
	}
	period, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil || period <= 0 {
		return 0, false
	}
	return int((quota + period - 1) / period), true
}

// pinned, when positive, replaces hostCPUs in limit (see PinHostCPUs).
var pinned atomic.Int64

// PinHostCPUs makes Workers treat the host as having n CPUs until restore
// is called, whatever its CPU count and quota. It exists for tests that drive
// the multi-worker paths on smaller hosts: paired with runtime.GOMAXPROCS(n)
// it lets Workers resolve up to n. Pins do not nest.
func PinHostCPUs(n int) (restore func()) {
	pinned.Store(int64(n))
	return func() { pinned.Store(0) }
}
