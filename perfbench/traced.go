package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"snvmm/internal/cpu"
	"snvmm/internal/secure"
	"snvmm/internal/sim"
	"snvmm/internal/telemetry"
	"snvmm/internal/trace"
	"snvmm/internal/xbar"
)

// span is one recorded interval: name, start and end in nanoseconds since
// the log began, and the index of the span that caused it (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spanLog keeps the traced run's spans in memory until it ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a span and returns its index.
func (l *spanLog) add(name string, t0, t1 time.Time, parent int) int {
	l.spans = append(l.spans, span{Name: name, Start: t0.Sub(l.t0).Nanoseconds(), End: t1.Sub(l.t0).Nanoseconds(), Parent: parent})
	return len(l.spans) - 1
}

// end closes span i at t.
func (l *spanLog) end(i int, t time.Time) { l.spans[i].End = t.Sub(l.t0).Nanoseconds() }

// selfTimes sums each span name's self time — its duration minus the time
// its children cover — in milliseconds.
func (l *spanLog) selfTimes() map[string]float64 {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range l.spans {
		out[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
	}
	return out
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Simulator rung: the sjeng profile under SPE-serial, plain and with the
// functional shadow attached.
const (
	simProfile = "sjeng"
	simInsts   = 200_000
	// simReencrypt is the SPE-serial re-encryption timer in cycles.
	simReencrypt = 10_000
)

// simPinned is the plain run of the reference seed, pinned from the
// commit the benchmark was written on. A change that is meant to speed up
// the simulator must leave every simulated statistic identical.
var simPinned = struct {
	seed, insts         int64
	stats               cpu.Stats
	memReads, memWrites uint64
	avgEncrypted        float64
}{
	seed: 1, insts: 50_000,
	stats: cpu.Stats{Instructions: 50_000, Cycles: 1_801_883, Loads: 10_835, Stores: 4_111,
		Branches: 10_522, Mispredicts: 5_128},
	memReads: 14_508, memWrites: 534, avgEncrypted: 0.9899169477512444,
}

// simRung measures the simulator and the shadow's share of a shadowed run,
// and checks the shadow's verification and the simulated statistics.
func simRung(seed int64, chk *checker, spans *spanLog, m map[string]metric) error {
	prof, err := trace.ProfileByName(simProfile)
	if err != nil {
		return err
	}
	root := spans.add("sim", time.Now(), time.Now(), -1)
	t0 := time.Now()
	plain, err := sim.Run(prof, secure.NewSPESerial(simReencrypt), simInsts, seed)
	t1 := time.Now()
	if err != nil {
		return err
	}
	spans.add("sim.Run", t0, t1, root)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sh, err := sim.NewShadow(ctx, sim.ShadowConfig{Workers: runtime.NumCPU()}, seed)
	if err != nil {
		return err
	}
	t2 := time.Now()
	shadowed, err := sim.RunShadowed(prof, secure.NewSPESerial(simReencrypt), simInsts, seed, sh)
	sh.Close()
	t3 := time.Now()
	if err != nil {
		return err
	}
	spans.add("sim.RunShadowed", t2, t3, root)
	spans.end(root, t3)

	chk.expect(sh.Err() == nil, "shadow: %v", sh.Err())
	chk.expect(shadowed.Stats == plain.Stats && shadowed.MemReads == plain.MemReads &&
		shadowed.MemWrites == plain.MemWrites && shadowed.AvgEncrypted == plain.AvgEncrypted,
		"shadow changed the simulated statistics: %+v vs %+v", shadowed, plain)
	ref, err := sim.Run(prof, secure.NewSPESerial(simReencrypt), simPinned.insts, simPinned.seed)
	if err != nil {
		return err
	}
	chk.expect(ref.Stats == simPinned.stats && ref.MemReads == simPinned.memReads &&
		ref.MemWrites == simPinned.memWrites && ref.AvgEncrypted == simPinned.avgEncrypted,
		"simulated statistics moved from the pinned reference: %+v", ref)

	ops, verified, skipped := sh.Stats()
	wallPlain, wallShadow := t1.Sub(t0), t3.Sub(t2)
	m["sim.host_ns_per_inst"] = metric{float64(wallPlain.Nanoseconds()) / float64(plain.Stats.Instructions), "ns/inst"}
	m["sim.shadow_share"] = metric{1 - wallPlain.Seconds()/wallShadow.Seconds(), "frac"}
	m["sim.shadow.ops"] = metric{float64(ops), "count"}
	m["sim.shadow.verified"] = metric{float64(verified), "count"}
	m["sim.shadow.skipped"] = metric{float64(skipped), "count"}
	m["sim.ipc"] = metric{plain.IPC, "inst/cycle"}
	m["sim.mem_reads"] = metric{float64(plain.MemReads), "count"}
	m["sim.mem_writes"] = metric{float64(plain.MemWrites), "count"}
	m["sim.avg_encrypted"] = metric{plain.AvgEncrypted, "frac"}
	return nil
}

// tracedRun is the per-layer run: set-up with the calibration counters
// attached, requests untraced then traced (the difference is the tracing
// overhead), the ladder replay and the simulator rung.
func tracedRun(w *workload, seed int64, seconds int, chk *checker, outDir string, stdout io.Writer) (map[string]metric, error) {
	m := make(map[string]metric)
	spans := newSpanLog()

	reg := telemetry.New()
	xbar.SetTelemetry(reg)
	t0 := time.Now()
	s, err := setUp(w, seed, chk)
	spans.add("setup", t0, time.Now(), -1)
	xbar.SetTelemetry(nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	m["xbar.cal_cache_hits"] = metric{float64(reg.Counter("xbar.cal.cache_hits").Load()), "count"}
	m["xbar.cal_cache_misses"] = metric{float64(reg.Counter("xbar.cal.cache_misses").Load()), "count"}

	// The requests run for two thirds of the run in alternating untraced
	// and traced quarters, so that drift over the run cancels out of the
	// overhead.
	quarter := time.Duration(seconds) * time.Second / 6
	r := newRunner(w, chk)
	r.s = s
	var ops [2]int64
	var busy [2]time.Duration
	for i := 0; i < 4; i++ {
		on := i % 2
		ops0, busy0 := r.ops, r.busy
		r.spans = nil
		if on == 1 {
			r.spans = spans
			t1 := time.Now()
			r.root = spans.add("requests", t1, t1, -1)
		}
		r.loop(quarter)
		if on == 1 {
			spans.end(r.root, time.Now())
		}
		ops[on] += r.ops - ops0
		busy[on] += r.busy - busy0
	}
	s.close()
	untraced := float64(ops[0]) / busy[0].Seconds()
	traced := float64(ops[1]) / busy[1].Seconds()
	m["bench.trace_overhead_frac"] = metric{1 - traced/untraced, "frac"}
	m["core.specu.poweroff_blocks"] = metric{mean(r.poweroffBlocks), "count"}

	l, err := newLadder(w, seed, chk, spans, m)
	if err != nil {
		return nil, err
	}
	// Placements are canonical: the ladder's own solve must agree with the
	// device's.
	chk.expect(slices.Equal(l.eng.Placement, s.placement), "ladder placement %v, device placement %v", l.eng.Placement, s.placement)
	if err := l.run(); err != nil {
		return nil, err
	}
	if err := simRung(seed, chk, spans, m); err != nil {
		return nil, fmt.Errorf("sim rung: %w", err)
	}

	printJSONLine(stdout, "inputs", r.inputs())
	printJSONLine(stdout, "span_self_ms", spans.selfTimes())
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	if err := spans.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(spans.spans), path)
	return m, nil
}
