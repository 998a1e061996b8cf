package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"snvmm/internal/core"
)

// runner drives the closed-loop requests of one workload against a set-up
// device, timing each request and checking every result.
type runner struct {
	w   *workload
	s   *setup
	chk *checker
	ctx context.Context

	readUs, writeUs []float64 // per-request latency by kind
	poweroffMs      []float64
	poweroffBlocks  []float64 // plaintext blocks resident at each power-off
	// busy is the time the device spent on requests, flushes and power
	// cycles — the benchmark's own checks and sampling are excluded.
	busy     time.Duration
	ops      int64
	requests int64
	// rates holds ops/busy-second of each window of requests; a window
	// spans one flush or power cycle period, so all windows do the same
	// mix of work. ops_per_s is their median.
	rates   []float64
	winOps  int64
	winBusy time.Duration
	encSum  float64
	encN    int

	// decrypted is the model of the Serial policy: blocks read since the
	// last flush, which the device holds as plaintext.
	decrypted map[uint64]bool
	in        inputStats

	spans *spanLog // nil when untraced
	root  int      // parent span of request spans
}

// inputStats measures the properties of the inputs an optimisation might
// key on.
type inputStats struct {
	reads, writes           int64 // ops
	serialReads, serialHits int64 // Serial: reads, and reads of decrypted blocks
	batches, smallBatches   int64 // batch requests, and those <= 8 ops (the inline path)
	shards                  int64 // shards touched, summed over batches
	touched                 map[uint64]bool
}

type inputReport struct {
	Requests        int64   `json:"requests"`
	ReadShare       float64 `json:"read_share"`
	WriteShare      float64 `json:"write_share"`
	SerialHitShare  float64 `json:"serial_hit_share"`
	ShardsPerBatch  float64 `json:"shards_per_batch"`
	SmallBatchShare float64 `json:"small_batch_share"`
	DistinctBlocks  int     `json:"distinct_blocks"`
}

// newRunner allocates the latency buffers up front, so that the live heap
// measured after the run is the device's, not the benchmark's.
func newRunner(w *workload, chk *checker) *runner {
	n := 1 << 14
	if w.batch == 1 {
		n = 1 << 20
	}
	return &runner{
		w:         w,
		chk:       chk,
		ctx:       context.Background(),
		readUs:    make([]float64, 0, n),
		writeUs:   make([]float64, 0, n/4),
		decrypted: make(map[uint64]bool),
		in:        inputStats{touched: make(map[uint64]bool)},
		root:      -1,
	}
}

// loop issues requests until d has passed.
func (r *runner) loop(d time.Duration) {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		r.step(r.s.gen.next())
	}
}

func (r *runner) step(req request) {
	r.note(req)
	tgt := r.s.tgt
	var t0, t1 time.Time
	switch {
	case r.w.batch == 1 && req.kind == opRead:
		a := req.addrs[0]
		t0 = time.Now()
		data, err := tgt.Read(a)
		t1 = time.Now()
		r.chk.read(a, data, err)
	case r.w.batch == 1:
		a := req.addrs[0]
		t0 = time.Now()
		err := tgt.Write(a, req.data[0])
		t1 = time.Now()
		r.chk.wrote(a, req.data[0], err)
	case req.kind == opRead:
		t0 = time.Now()
		res := tgt.ReadBatch(r.ctx, req.addrs)
		t1 = time.Now()
		for _, x := range res {
			r.chk.read(x.Addr, x.Data, x.Err)
		}
	default:
		ops := make([]core.WriteOp, len(req.addrs))
		for i, a := range req.addrs {
			ops[i] = core.WriteOp{Addr: a, Data: req.data[i]}
		}
		t0 = time.Now()
		errs := tgt.WriteBatch(r.ctx, ops)
		t1 = time.Now()
		for i, err := range errs {
			r.chk.wrote(ops[i].Addr, ops[i].Data, err)
		}
	}
	lat := t1.Sub(t0)
	r.busy += lat
	r.ops += int64(len(req.addrs))
	us := float64(lat.Nanoseconds()) / 1e3
	name := req.kind.String()
	if r.w.batch > 1 {
		name += "_batch"
	}
	r.span(name, t0, t1)
	if req.kind == opRead {
		r.readUs = append(r.readUs, us)
	} else {
		r.writeUs = append(r.writeUs, us)
	}
	if r.w.mode == core.Serial {
		for _, a := range req.addrs {
			if req.kind == opRead {
				r.decrypted[a] = true
			} else {
				delete(r.decrypted, a)
			}
		}
	}

	r.requests++
	n := r.requests
	if n%int64(r.w.sampleEvery) == 0 {
		r.sample()
	}
	switch {
	case n%int64(r.w.powerEvery) == 0:
		r.powerCycle()
	case r.w.flushEvery > 0 && n%int64(r.w.flushEvery) == 0:
		r.flush()
	}
	if n%int64(r.w.window()) == 0 {
		r.rates = append(r.rates, float64(r.ops-r.winOps)/(r.busy-r.winBusy).Seconds())
		r.winOps, r.winBusy = r.ops, r.busy
	}
}

// note accumulates the input properties of req before it is issued.
func (r *runner) note(req request) {
	in := &r.in
	if req.kind == opRead {
		in.reads += int64(len(req.addrs))
	} else {
		in.writes += int64(len(req.addrs))
	}
	if r.w.batch > 1 {
		in.batches++
		if len(req.addrs) <= 8 {
			in.smallBatches++
		}
		var seen [core.NumShards]bool
		for _, a := range req.addrs {
			if si := shardOf(a); !seen[si] {
				seen[si] = true
				in.shards++
			}
		}
	}
	for _, a := range req.addrs {
		in.touched[a] = true
		if r.w.mode == core.Serial && req.kind == opRead {
			in.serialReads++
			if r.decrypted[a] {
				in.serialHits++
			}
		}
	}
}

// sample records the encrypted share and checks it against the model of
// the Serial policy.
func (r *runner) sample() {
	frac := r.s.tgt.EncryptedFraction()
	want := 1 - float64(len(r.decrypted))/float64(r.w.blocks)
	r.chk.expect(math.Abs(frac-want) < 1e-9, "encrypted fraction %.6f, model says %.6f", frac, want)
	r.encSum += frac
	r.encN++
}

func (r *runner) flush() {
	t0 := time.Now()
	err := r.s.tgt.Flush()
	t1 := time.Now()
	r.chk.expect(err == nil, "flush: %v", err)
	r.busy += t1.Sub(t0)
	r.span("flush", t0, t1)
	clear(r.decrypted)
}

// powerCycle powers the device off, steals every block (none may be
// plaintext) and powers it on again.
func (r *runner) powerCycle() {
	tgt := r.s.tgt
	r.poweroffBlocks = append(r.poweroffBlocks, float64(len(r.decrypted)))
	t0 := time.Now()
	err := tgt.PowerOff()
	t1 := time.Now()
	r.chk.expect(err == nil, "power-off: %v", err)
	r.span("power_off", t0, t1)
	r.poweroffMs = append(r.poweroffMs, float64(t1.Sub(t0).Nanoseconds())/1e6)
	for a := range r.chk.model {
		raw, err := tgt.Steal(a)
		r.chk.stolen(a, raw, err)
	}
	t2 := time.Now()
	err = tgt.PowerOn()
	t3 := time.Now()
	r.chk.expect(err == nil, "power-on: %v", err)
	r.span("power_on", t2, t3)
	r.busy += t1.Sub(t0) + t3.Sub(t2)
	clear(r.decrypted)
}

func (r *runner) span(name string, t0, t1 time.Time) {
	if r.spans != nil {
		r.spans.add(name, t0, t1, r.root)
	}
}

func (r *runner) inputs() inputReport {
	in := r.in
	rep := inputReport{Requests: r.requests, DistinctBlocks: len(in.touched)}
	if ops := in.reads + in.writes; ops > 0 {
		rep.ReadShare = float64(in.reads) / float64(ops)
		rep.WriteShare = float64(in.writes) / float64(ops)
	}
	if in.serialReads > 0 {
		rep.SerialHitShare = float64(in.serialHits) / float64(in.serialReads)
	}
	if in.batches > 0 {
		rep.ShardsPerBatch = float64(in.shards) / float64(in.batches)
		rep.SmallBatchShare = float64(in.smallBatches) / float64(in.batches)
	}
	return rep
}

// latencyReport states how many samples the latency metrics rest on, and
// prints the tails: p90, and the highest percentile with at least ten
// samples beyond it. The tails are printed, not gated: on a shared 2-vCPU
// host a batch p90 moved by half between runs with the hypervisor's steal
// time, while the medians held within about a tenth.
type latencyReport struct {
	Reads       int     `json:"read_samples"`
	ReadP90Us   float64 `json:"read_p90_us"`
	ReadTopPc   float64 `json:"read_top_percentile"`
	ReadTopUs   float64 `json:"read_top_us"`
	Writes      int     `json:"write_samples"`
	WriteP90Us  float64 `json:"write_p90_us"`
	WriteTopPc  float64 `json:"write_top_percentile"`
	WriteTopUs  float64 `json:"write_top_us"`
	PowerCycles int     `json:"power_cycles"`
	Windows     int     `json:"throughput_windows"`
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// timedRun is the end-to-end run: set-up timed three times (twice in
// fresh processes), then closed-loop requests for the given seconds with
// telemetry and tracing detached.
func timedRun(w *workload, seed int64, seconds int, chk *checker, stdout io.Writer) (map[string]metric, error) {
	setups, err := childSetups(w, seed, 2)
	if err != nil {
		return nil, err
	}
	r := newRunner(w, chk)
	base := heapAlloc()
	s, err := setUp(w, seed, chk)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	r.s = s
	setups = append(setups, s.seconds)
	r.loop(time.Duration(seconds) * time.Second)
	after := heapAlloc()
	heap := float64(after-min(base, after)) / (1 << 20)
	rq, wq := tailPercentile(len(r.readUs)), tailPercentile(len(r.writeUs))
	if rq < 90 || wq < 90 || len(r.poweroffMs) == 0 || len(r.rates) == 0 {
		return nil, fmt.Errorf("run too short: %d reads, %d writes, %d power cycles, %d windows",
			len(r.readUs), len(r.writeUs), len(r.poweroffMs), len(r.rates))
	}
	printJSONLine(stdout, "setup_samples_s", setups)
	printJSONLine(stdout, "inputs", r.inputs())
	printJSONLine(stdout, "latency", latencyReport{
		Reads: len(r.readUs), ReadP90Us: percentile(r.readUs, 90), ReadTopPc: rq, ReadTopUs: percentile(r.readUs, rq),
		Writes: len(r.writeUs), WriteP90Us: percentile(r.writeUs, 90), WriteTopPc: wq, WriteTopUs: percentile(r.writeUs, wq),
		PowerCycles: len(r.poweroffMs), Windows: len(r.rates),
	})
	return map[string]metric{
		"setup_s":         {median(setups), "s"},
		"ops_per_s":       {median(r.rates), "1/s"},
		"read_p50_us":     {median(r.readUs), "us"},
		"write_p50_us":    {median(r.writeUs), "us"},
		"encrypted_frac":  {r.encSum / float64(r.encN), "frac"},
		"poweroff_p50_ms": {median(r.poweroffMs), "ms"},
		"live_heap_mb":    {heap, "MB"},
	}, nil
}
