package main

import (
	"fmt"
	"sort"
)

// The metric names and units every run must print; BENCHMARK.json lists
// the same names (a test holds the two together). The layer is the name's
// prefix up to the last dot.

// endToEnd is printed by -trace 0 on every workload.
var endToEnd = map[string]string{
	"setup_s":         "s",
	"ops_per_s":       "1/s",
	"read_p50_us":     "us",
	"write_p50_us":    "us",
	"encrypted_frac":  "frac",
	"poweroff_p50_ms": "ms",
	"live_heap_mb":    "MB",
}

// perLayer is printed by -trace 1 on every workload.
var perLayer = map[string]string{
	"prng.schedule_us":              "us",
	"prng.schedule_allocs":          "count",
	"xbar.pulse_warm_us":            "us",
	"xbar.pulse_cold_us":            "us",
	"xbar.pulse_allocs":             "count",
	"xbar.pulses_per_op":            "count",
	"xbar.char_first_touch_s":       "s",
	"xbar.cal_cache_hits":           "count",
	"xbar.cal_cache_misses":         "count",
	"poe.solve_s":                   "s",
	"poe.nodes":                     "count",
	"core.block.encrypt_us":         "us",
	"core.block.decrypt_us":         "us",
	"core.block.allocs":             "count",
	"core.block.new_us":             "us",
	"core.block.self_us":            "us",
	"core.specu.read_us":            "us",
	"core.specu.write_us":           "us",
	"core.specu.read_hit_us":        "us",
	"core.specu.flush_us_per_block": "us",
	"core.specu.poweroff_blocks":    "count",
	"core.specu.self_us":            "us",
	"core.batch.read_us":            "us",
	"core.batch.write_us":           "us",
	"core.batch.shards_per_batch":   "count",
	"core.batch.parallel_eff":       "frac",
	"core.pool.steal_rate":          "frac",
	"core.pool.active_workers_max":  "count",
	"core.pool.grows":               "count",
	"core.pool.shrinks":             "count",
	"core.pool.queue_depth_max":     "count",
	"sim.host_ns_per_inst":          "ns/inst",
	"sim.shadow_share":              "frac",
	"sim.shadow.ops":                "count",
	"sim.shadow.verified":           "count",
	"sim.shadow.skipped":            "count",
	"sim.ipc":                       "inst/cycle",
	"sim.mem_reads":                 "count",
	"sim.mem_writes":                "count",
	"sim.avg_encrypted":             "frac",
	"bench.trace_overhead_frac":     "frac",
}

// checkNames reports a metric the run printed but should not have, one it
// missed, or one with the wrong unit.
func checkNames(got map[string]metric, want map[string]string) error {
	var bad []string
	for n, m := range got {
		if u, ok := want[n]; !ok || u != m.Unit {
			bad = append(bad, fmt.Sprintf("unexpected %s [%s]", n, m.Unit))
		}
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			bad = append(bad, "missing "+n)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("metric set does not match BENCHMARK.json: %v", bad)
	}
	return nil
}
