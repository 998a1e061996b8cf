package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"snvmm/internal/core"
	"snvmm/internal/device"
	"snvmm/internal/poe"
	"snvmm/internal/prng"
	"snvmm/internal/telemetry"
	"snvmm/internal/xbar"
)

// The ladder replay: a seeded sample of the workload's ops driven one layer
// at a time through public functions — core.SPECU.Read/Write, then
// Engine.NewBlock + Block.WritePlain/Encrypt/Decrypt, then xbar.New +
// CalibrationFor + Crossbar.WriteBlock/ApplyPulse in DeriveSchedule order,
// then prng.DeriveSchedule — plus the batch layer on a served SPECU. A
// rung's self time is its time per op minus the rung below it times that
// rung's calls per op.

// ladderOp is one op of the sample.
type ladderOp struct {
	kind opKind
	addr uint64
	data []byte // write payload
}

type ladder struct {
	w     *workload
	eng   *core.Engine
	key   prng.Key
	init  map[uint64][]byte // initial contents of every block the sample touches
	addrs []uint64          // those blocks, sorted
	ops   []ladderOp
	rungN int // the single-op rungs replay ops[:rungN]
	chk   *checker
	spans *spanLog
	root  int
	m     map[string]metric
}

// ladderSize is the least number of sampled ops per single-op rung.
func ladderSize(w *workload) int {
	switch {
	case w.batch == 1:
		return 4096
	case w.geom > 8:
		return 256
	}
	return 512
}

// newLadder draws the sample from the workload's own generator and builds
// the engine from the placement poe.Solve returns, timing the solve.
func newLadder(w *workload, seed int64, chk *checker, spans *spanLog, m map[string]metric) (*ladder, error) {
	p, err := w.params(seed)
	if err != nil {
		return nil, err
	}
	slack := p.SecuritySlack
	if slack < 0 {
		slack = core.DefaultSecuritySlack
	}
	t0 := time.Now()
	res, err := poe.Solve(poe.Spec{Cfg: p.Xbar, S: slack, MaxNodes: p.MaxNodes})
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	root := spans.add("ladder", t0, t0, -1)
	spans.add("poe.solve", t0, t1, root)
	m["poe.solve_s"] = metric{t1.Sub(t0).Seconds(), "s"}
	m["poe.nodes"] = metric{float64(res.Nodes), "count"}
	p.PoEs = res.PoEs
	eng, err := core.NewEngine(p)
	if err != nil {
		return nil, err
	}

	g := newGen(w, seed)
	l := &ladder{w: w, eng: eng, key: g.key(), init: make(map[uint64][]byte), chk: chk, spans: spans, root: root, m: m}
	fill := g.fill()
	// The single-op rungs take at least ladderSize ops and run on until the
	// sample holds a write; the batch rung replays four times as many.
	var kinds [2]bool
	for len(l.ops) < 4*ladderSize(w) || !kinds[opWrite] {
		req := g.next()
		kinds[req.kind] = true
		for i, a := range req.addrs {
			op := ladderOp{kind: req.kind, addr: a}
			if req.kind == opWrite {
				op.data = req.data[i]
			}
			l.ops = append(l.ops, op)
			if l.init[a] == nil {
				l.init[a] = fill[a/core.BlockSize].Data
				l.addrs = append(l.addrs, a)
			}
		}
		if l.rungN == 0 && len(l.ops) >= ladderSize(w) && kinds[opRead] && kinds[opWrite] {
			l.rungN = len(l.ops)
		}
	}
	sort.Slice(l.addrs, func(i, j int) bool { return l.addrs[i] < l.addrs[j] })
	return l, nil
}

// rungOps is the sample the single-op rungs replay.
func (l *ladder) rungOps() []ladderOp { return l.ops[:l.rungN] }

func usSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e3 }

// mallocs returns the heap allocations f makes per call, over calls calls.
func mallocs(calls int, f func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < calls; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(calls)
}

// rung times one ladder rung and records its span.
func (l *ladder) rung(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	l.spans.add("ladder."+name, t0, time.Now(), l.root)
	if err != nil {
		return fmt.Errorf("ladder %s: %w", name, err)
	}
	return nil
}

// specuRung replays the sample as synchronous single-goroutine SPECU ops.
// It returns the mean op time by kind and over all ops.
func (l *ladder) specuRung() (byKind map[opKind]float64, all float64, err error) {
	chk := newChecker(0)
	defer l.chk.merge(chk)
	su := core.NewSPECU(l.eng, l.w.mode)
	if err := su.PowerOn(l.key); err != nil {
		return nil, 0, err
	}
	for _, a := range l.addrs {
		chk.wrote(a, l.init[a], su.Write(a, l.init[a]))
	}
	sum := map[opKind]float64{}
	cnt := map[opKind]float64{}
	for _, op := range l.rungOps() {
		t0 := time.Now()
		if op.kind == opRead {
			data, err := su.Read(op.addr)
			sum[op.kind] += usSince(t0)
			chk.read(op.addr, data, err)
		} else {
			err := su.Write(op.addr, op.data)
			sum[op.kind] += usSince(t0)
			chk.wrote(op.addr, op.data, err)
		}
		cnt[op.kind]++
	}
	byKind = map[opKind]float64{}
	for k := range sum {
		byKind[k] = sum[k] / cnt[k]
	}
	all = (sum[opRead] + sum[opWrite]) / (cnt[opRead] + cnt[opWrite])
	l.m["core.specu.read_us"] = metric{byKind[opRead], "us"}
	l.m["core.specu.write_us"] = metric{byKind[opWrite], "us"}
	return byKind, all, nil
}

// blockRung replays the sample on bare blocks with the SPECU's policy: a
// read decrypts an encrypted block and, in Parallel mode, re-encrypts it;
// a write decrypts if needed, programs the plaintext and encrypts. It
// returns the mean op time and the crossbar crypts per op.
func (l *ladder) blockRung() (opUs, xcryptsPerOp float64, err error) {
	chk := newChecker(0)
	defer l.chk.merge(chk)
	blocks := make(map[uint64]*core.Block, len(l.addrs))
	newUs := 0.0
	for _, a := range l.addrs {
		t0 := time.Now()
		b, err := l.eng.NewBlock(int64(a))
		newUs += usSince(t0)
		if err != nil {
			return 0, 0, err
		}
		if err := b.WritePlain(l.init[a]); err != nil {
			return 0, 0, err
		}
		if err := b.Encrypt(l.key, a); err != nil {
			return 0, 0, err
		}
		blocks[a] = b
		chk.wrote(a, l.init[a], nil)
	}
	var encUs, decUs, total float64
	var nEnc, nDec int
	crypt := func(b *core.Block, a uint64, decrypt bool) error {
		t0 := time.Now()
		if decrypt {
			err := b.Decrypt(l.key, a)
			decUs += usSince(t0)
			nDec++
			return err
		}
		err := b.Encrypt(l.key, a)
		encUs += usSince(t0)
		nEnc++
		return err
	}
	ops := l.rungOps()
	for _, op := range ops {
		b := blocks[op.addr]
		t0 := time.Now()
		var err error
		if b.Encrypted() {
			err = crypt(b, op.addr, true)
		}
		var data []byte
		if err == nil && op.kind == opRead {
			data, err = b.ReadPlain()
			if err == nil && l.w.mode == core.Parallel {
				err = crypt(b, op.addr, false)
			}
		} else if err == nil {
			if err = b.WritePlain(op.data); err == nil {
				err = crypt(b, op.addr, false)
			}
		}
		total += usSince(t0)
		if op.kind == opRead {
			chk.read(op.addr, data, err)
		} else {
			chk.wrote(op.addr, op.data, err)
		}
	}
	b := blocks[l.addrs[0]]
	allocs := mallocs(40, func() {
		if b.Encrypted() {
			_ = b.Decrypt(l.key, l.addrs[0])
		} else {
			_ = b.Encrypt(l.key, l.addrs[0])
		}
	})
	l.m["core.block.new_us"] = metric{newUs / float64(len(l.addrs)), "us"}
	l.m["core.block.encrypt_us"] = metric{encUs / float64(max(nEnc, 1)), "us"}
	l.m["core.block.decrypt_us"] = metric{decUs / float64(max(nDec, 1)), "us"}
	l.m["core.block.allocs"] = metric{allocs, "count"}
	n := float64(len(ops))
	return total / n, float64((nEnc+nDec)*l.eng.CrossbarsPerBlock()) / n, nil
}

// ladderXbar is one crossbar of the xbar rung with its fixed schedule (the
// key and block address are fixed, so every crypt of a crossbar repeats
// one schedule).
type ladderXbar struct {
	x     *xbar.Crossbar
	cal   *xbar.Calibration
	sched prng.Schedule
	key   prng.Key
}

// xbarKey derives the rung's per-crossbar key; any key exercises the same
// pulse path.
func (l *ladder) xbarKey(a uint64, i int) prng.Key {
	t := a*4 + uint64(i)
	return prng.NewKey(l.key.Address^t*0x9E3779B97F4A7C15, l.key.Voltage+t)
}

// xcrypt applies one crossbar crypt — the forward schedule, or the inverse
// pulses in reverse order — and times it with one clock pair (a pair costs
// about a tenth of a pulse). Right after WriteBlock the first, cold pulse
// is timed on its own.
func (l *ladder) xcrypt(x *ladderXbar, decrypt, afterWrite bool) (coldUs, warmUs float64, warm int, err error) {
	n := len(x.sched.Order)
	apply := func(s int) error {
		step, class := s, x.sched.Classes[s]
		if decrypt {
			step = n - 1 - s
			class = xbar.InverseClass(x.sched.Classes[step])
		}
		return x.x.ApplyPulse(x.cal, l.eng.Placement[x.sched.Order[step]], class)
	}
	s := 0
	if afterWrite {
		t0 := time.Now()
		err = apply(0)
		coldUs, s = usSince(t0), 1
		if err != nil {
			return 0, 0, 0, err
		}
	}
	warm = n - s
	t0 := time.Now()
	for ; s < n && err == nil; s++ {
		err = apply(s)
	}
	return coldUs, usSince(t0), warm, err
}

// xbarRung replays the sample on bare crossbars and returns the pulse time
// per op. prngRung then times the schedule derivations it used.
func (l *ladder) xbarRung() (pulseUsPerOp float64, xbs []*ladderXbar, err error) {
	chk := newChecker(0)
	defer l.chk.merge(chk)
	nx := l.eng.CrossbarsPerBlock()
	per := core.BlockSize / nx
	byAddr := make(map[uint64][]*ladderXbar, len(l.addrs))
	enc := make(map[uint64]bool, len(l.addrs))
	for _, a := range l.addrs {
		row := make([]*ladderXbar, nx)
		for i := range row {
			cfg := l.eng.P.Xbar
			cfg.Seed = int64(a)*257 + int64(i)
			x, err := xbar.New(cfg)
			if err != nil {
				return 0, nil, err
			}
			cal, err := xbar.CalibrationFor(x)
			if err != nil {
				return 0, nil, err
			}
			k := l.xbarKey(a, i)
			row[i] = &ladderXbar{x: x, cal: cal, key: k, sched: prng.DeriveSchedule(k, len(l.eng.Placement), device.NumPulses)}
			if err := x.WriteBlock(l.init[a][i*per : (i+1)*per]); err != nil {
				return 0, nil, err
			}
			if _, _, _, err := l.xcrypt(row[i], false, false); err != nil {
				return 0, nil, err
			}
			xbs = append(xbs, row[i])
		}
		byAddr[a], enc[a] = row, true
		chk.wrote(a, l.init[a], nil)
	}
	var cold []float64
	var warmUs, total float64
	var warm, pulses int
	crypt := func(x *ladderXbar, decrypt, afterWrite bool) error {
		c, w, nw, err := l.xcrypt(x, decrypt, afterWrite)
		if afterWrite {
			cold = append(cold, c)
		}
		warmUs += w
		warm += nw
		total += c + w
		pulses += len(x.sched.Order)
		return err
	}
	ops := l.rungOps()
	for _, op := range ops {
		var err error
		var data []byte
		for i, x := range byAddr[op.addr] {
			if enc[op.addr] {
				if err = crypt(x, true, false); err != nil {
					break
				}
			}
			if op.kind == opRead {
				data = append(data, x.x.ReadBlock()...)
				if l.w.mode == core.Parallel {
					err = crypt(x, false, false)
				}
			} else if err = x.x.WriteBlock(op.data[i*per : (i+1)*per]); err == nil {
				err = crypt(x, false, true)
			}
			if err != nil {
				break
			}
		}
		enc[op.addr] = op.kind == opWrite || l.w.mode == core.Parallel
		if op.kind == opRead {
			chk.read(op.addr, data, err)
		} else {
			chk.wrote(op.addr, op.data, err)
		}
	}
	x := xbs[0]
	allocs := mallocs(8, func() {
		_, _, _, _ = l.xcrypt(x, true, false)
		_, _, _, _ = l.xcrypt(x, false, false)
	}) / float64(2*len(x.sched.Order))
	n := float64(len(ops))
	l.m["xbar.pulse_warm_us"] = metric{warmUs / float64(max(warm, 1)), "us"}
	l.m["xbar.pulse_cold_us"] = metric{median(cold), "us"}
	l.m["xbar.pulse_allocs"] = metric{allocs, "count"}
	l.m["xbar.pulses_per_op"] = metric{float64(pulses) / n, "count"}
	return total / n, xbs, nil
}

// prngRung times prng.DeriveSchedule on the crossbar keys of the xbar rung.
func (l *ladder) prngRung(xbs []*ladderXbar) float64 {
	calls := 0
	t0 := time.Now()
	for calls < 4000 {
		for _, x := range xbs {
			prng.DeriveSchedule(x.key, len(l.eng.Placement), device.NumPulses)
			calls++
		}
	}
	us := usSince(t0) / float64(calls)
	k := xbs[0].key
	allocs := mallocs(1000, func() { prng.DeriveSchedule(k, len(l.eng.Placement), device.NumPulses) })
	l.m["prng.schedule_us"] = metric{us, "us"}
	l.m["prng.schedule_allocs"] = metric{allocs, "count"}
	return us
}

// batchRung replays the sample as batches of up to 64 same-kind ops on a
// served SPECU with telemetry attached, and samples the pool's gauges.
func (l *ladder) batchRung(opUs map[opKind]float64) error {
	chk := newChecker(0)
	defer l.chk.merge(chk)
	reg := telemetry.New()
	su := core.NewSPECU(l.eng, l.w.mode)
	su.EnableTelemetry(reg)
	if err := su.PowerOn(l.key); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	nproc := runtime.NumCPU()
	if err := su.Serve(ctx, nproc, 0); err != nil {
		return err
	}
	defer su.Close()
	for lo := 0; lo < len(l.addrs); lo += 64 {
		ops := make([]core.WriteOp, 0, 64)
		for _, a := range l.addrs[lo:min(lo+64, len(l.addrs))] {
			ops = append(ops, core.WriteOp{Addr: a, Data: l.init[a]})
		}
		for i, err := range su.WriteBatch(ctx, ops) {
			chk.wrote(ops[i].Addr, ops[i].Data, err)
		}
	}

	// Sample the pool's live gauges while the batches run.
	active, depth := reg.Gauge("specu.pool.active_workers"), reg.Gauge("specu.pool.queue_depth")
	var activeMax, depthMax int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(200 * time.Microsecond)
		defer t.Stop()
		for {
			activeMax, depthMax = max(activeMax, active.Load()), max(depthMax, depth.Load())
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()

	var samples []batchSample
	var readUs, writeUs []float64
	shards := 0
	for lo := 0; lo < len(l.ops); {
		hi := lo + 1
		for hi < len(l.ops) && hi-lo < 64 && l.ops[hi].kind == l.ops[lo].kind {
			hi++
		}
		batch := l.ops[lo:hi]
		lo = hi
		var seen [core.NumShards]bool
		addrs := make([]uint64, len(batch))
		for i, op := range batch {
			addrs[i] = op.addr
			if si := shardOf(op.addr); !seen[si] {
				seen[si] = true
				shards++
			}
		}
		t0 := time.Now()
		if batch[0].kind == opRead {
			res := su.ReadBatch(ctx, addrs)
			us := usSince(t0)
			readUs = append(readUs, us)
			samples = append(samples, batchSample{opRead, len(batch), us})
			for _, r := range res {
				chk.read(r.Addr, r.Data, r.Err)
			}
		} else {
			ops := make([]core.WriteOp, len(batch))
			for i, op := range batch {
				ops[i] = core.WriteOp{Addr: op.addr, Data: op.data}
			}
			errs := su.WriteBatch(ctx, ops)
			us := usSince(t0)
			writeUs = append(writeUs, us)
			samples = append(samples, batchSample{opWrite, len(batch), us})
			for i, err := range errs {
				chk.wrote(ops[i].Addr, ops[i].Data, err)
			}
		}
	}
	close(stop)
	wg.Wait()

	l.m["core.batch.read_us"] = metric{mean(readUs), "us"}
	l.m["core.batch.write_us"] = metric{mean(writeUs), "us"}
	l.m["core.batch.shards_per_batch"] = metric{float64(shards) / float64(len(samples)), "count"}
	l.m["core.batch.parallel_eff"] = metric{parallelEff(samples, opUs, nproc, nproc), "frac"}
	l.m["core.pool.steal_rate"] = metric{reg.FloatGauge("specu.pool.steal_rate").Load(), "frac"}
	l.m["core.pool.active_workers_max"] = metric{float64(activeMax), "count"}
	l.m["core.pool.grows"] = metric{float64(reg.Counter("specu.pool.grows").Load()), "count"}
	l.m["core.pool.shrinks"] = metric{float64(reg.Counter("specu.pool.shrinks").Load()), "count"}
	l.m["core.pool.queue_depth_max"] = metric{float64(depthMax), "count"}
	return nil
}

// serialProbe measures the Serial policy's two costs on the workload's
// engine: a read of an already-decrypted block, and the flush per block.
func (l *ladder) serialProbe() error {
	chk := newChecker(0)
	defer l.chk.merge(chk)
	su := core.NewSPECU(l.eng, core.Serial)
	if err := su.PowerOn(l.key); err != nil {
		return err
	}
	addrs := l.addrs[:min(64, len(l.addrs))]
	for _, a := range addrs {
		chk.wrote(a, l.init[a], su.Write(a, l.init[a]))
	}
	for _, a := range addrs {
		data, err := su.Read(a) // decrypts, leaves the block plaintext
		chk.read(a, data, err)
	}
	t0 := time.Now()
	for _, a := range addrs {
		data, err := su.Read(a)
		chk.read(a, data, err)
	}
	hitUs := usSince(t0) / float64(len(addrs))
	plain := su.PlaintextBlocks()
	t0 = time.Now()
	err := su.EncryptPending()
	flushUs := usSince(t0)
	chk.expect(err == nil && plain == len(addrs) && su.PlaintextBlocks() == 0,
		"serial probe: %d plaintext before flush, %d after, err %v", plain, su.PlaintextBlocks(), err)
	l.m["core.specu.read_hit_us"] = metric{hitUs, "us"}
	l.m["core.specu.flush_us_per_block"] = metric{flushUs / float64(max(plain, 1)), "us"}
	return nil
}

// charFirstTouch times an uncached characterization of a fresh crossbar
// followed by one pulse per placement PoE (each first touch builds that
// PoE's calibration record).
func (l *ladder) charFirstTouch() error {
	t0 := time.Now()
	x, err := xbar.New(l.eng.P.Xbar)
	if err != nil {
		return err
	}
	cal := xbar.Calibrate(x)
	for _, p := range l.eng.Placement {
		if err := x.ApplyPulse(cal, p, 0); err != nil {
			return err
		}
	}
	l.m["xbar.char_first_touch_s"] = metric{time.Since(t0).Seconds(), "s"}
	return nil
}

// run drives every rung and derives the self times.
func (l *ladder) run() error {
	var opUs map[opKind]float64
	var specuUs, blockUs, xcrypts, pulseUs, schedUs float64
	var xbs []*ladderXbar
	steps := []struct {
		name string
		f    func() error
	}{
		{"specu", func() (err error) { opUs, specuUs, err = l.specuRung(); return }},
		{"block", func() (err error) { blockUs, xcrypts, err = l.blockRung(); return }},
		{"xbar", func() (err error) { pulseUs, xbs, err = l.xbarRung(); return }},
		{"prng", func() error { schedUs = l.prngRung(xbs); return nil }},
		{"batch", func() error { return l.batchRung(opUs) }},
		{"serial_probe", l.serialProbe},
		{"char_first_touch", l.charFirstTouch},
	}
	for _, s := range steps {
		if err := l.rung(s.name, s.f); err != nil {
			return err
		}
	}
	l.spans.end(l.root, time.Now())
	l.m["core.specu.self_us"] = metric{specuUs - blockUs, "us"}
	l.m["core.block.self_us"] = metric{blockUs - xcrypts*schedUs - pulseUs, "us"}
	return nil
}
