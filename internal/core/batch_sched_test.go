package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snvmm/internal/prng"
	"snvmm/internal/telemetry"
	"snvmm/internal/telemetry/trace"
)

// withProcs pins GOMAXPROCS for the test's duration. The coalescing
// scheduler only engages when the pool cap resolves above 1, so on a
// single-core CI host these tests raise the schedulable parallelism
// (legal above the physical core count) to exercise the parallel path.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// batchPayload is the deterministic per-op payload used by the
// determinism property test.
func batchPayload(i int) []byte {
	d := make([]byte, BlockSize)
	for j := range d {
		d[j] = byte(3*i + j)
	}
	return d
}

// TestBatchResultOrderDeterministic is the scheduler's order property
// test: for the same inputs, every batch method must fill the same result
// slot with the same value at workers 1 (inline path), 4 and 8 (coalesced
// path) — slot i belongs to input i no matter which shard run executed it
// or in what order the runs completed. The batch mixes duplicate
// addresses (same-shard runs longer than one op) and one unknown address
// (error slots must stay put too).
func TestBatchResultOrderDeterministic(t *testing.T) {
	withProcs(t, 8)
	e := engineForTest(t)
	const n = 48
	const unknownSlot = 17
	key := prng.NewKey(0xDE7, 0x0DE)

	type outcome struct {
		writeErrs []string
		reads     []ReadResult
		encErrs   []string
		decErrs   []string
	}
	errStr := func(errs []error) []string {
		out := make([]string, len(errs))
		for i, err := range errs {
			if err != nil {
				out[i] = err.Error()
			}
		}
		return out
	}

	runAt := func(workers int) outcome {
		s := NewSPECU(e, Serial)
		if err := s.PowerOn(key); err != nil {
			t.Fatal(err)
		}
		if workers > 1 {
			if err := s.Serve(context.Background(), workers, 0); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
		}
		ops := make([]WriteOp, n)
		addrs := make([]uint64, n)
		for i := range ops {
			// i%20 duplicates addresses across the batch: later write slots
			// overwrite earlier ones in input order within a shard run.
			addrs[i] = uint64(i%20) * BlockSize
			ops[i] = WriteOp{Addr: addrs[i], Data: batchPayload(i)}
		}
		var o outcome
		o.writeErrs = errStr(s.WriteBatch(context.Background(), ops))
		o.reads = s.ReadBatch(context.Background(), addrs)
		encAddrs := append([]uint64(nil), addrs...)
		encAddrs[unknownSlot] = 0x7777740 // never written
		o.encErrs = errStr(s.EncryptBatch(context.Background(), encAddrs))
		o.decErrs = errStr(s.DecryptBatch(context.Background(), addrs[:12]))
		return o
	}

	ref := runAt(1)
	for i, err := range ref.writeErrs {
		if err != "" {
			t.Fatalf("workers=1 write %d: %v", i, err)
		}
	}
	if ref.encErrs[unknownSlot] == "" {
		t.Fatalf("workers=1: unknown-address slot %d reported no error", unknownSlot)
	}
	for _, workers := range []int{4, 8} {
		got := runAt(workers)
		for i := 0; i < n; i++ {
			if got.writeErrs[i] != ref.writeErrs[i] {
				t.Errorf("workers=%d write slot %d: %q != %q", workers, i, got.writeErrs[i], ref.writeErrs[i])
			}
			if got.reads[i].Addr != ref.reads[i].Addr ||
				!bytes.Equal(got.reads[i].Data, ref.reads[i].Data) ||
				fmt.Sprint(got.reads[i].Err) != fmt.Sprint(ref.reads[i].Err) {
				t.Errorf("workers=%d read slot %d diverges from workers=1", workers, i)
			}
			if got.encErrs[i] != ref.encErrs[i] {
				t.Errorf("workers=%d encrypt slot %d: %q != %q", workers, i, got.encErrs[i], ref.encErrs[i])
			}
		}
		for i := range ref.decErrs {
			if got.decErrs[i] != ref.decErrs[i] {
				t.Errorf("workers=%d decrypt slot %d: %q != %q", workers, i, got.decErrs[i], ref.decErrs[i])
			}
		}
	}
}

// TestBatchCoalescedPowerOffBarrier races coalesced batches against the
// PowerOff barrier under the race detector. Every batch slot must either
// succeed (its shard run held keyMu before the barrier) or fail with
// ErrNoKey (its run started after) — never anything else — and after
// PowerOff returns no plaintext may remain regardless of how many runs
// were in flight.
func TestBatchCoalescedPowerOffBarrier(t *testing.T) {
	withProcs(t, 4)
	e := engineForTest(t)
	s := NewSPECU(e, Serial)
	key := prng.NewKey(0xBA2, 0x2AB)
	if err := s.PowerOn(key); err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(context.Background(), 4, 8); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 24
	ops := make([]WriteOp, n)
	addrs := make([]uint64, n)
	for i := range ops {
		addrs[i] = uint64(i) * BlockSize
		ops[i] = WriteOp{Addr: addrs[i], Data: batchPayload(i)}
	}
	for i, err := range s.WriteBatch(context.Background(), ops) {
		if err != nil {
			t.Fatalf("seed write %d: %v", i, err)
		}
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for iter := 0; iter < 4; iter++ {
				if g%2 == 0 {
					for i, err := range s.WriteBatch(context.Background(), ops) {
						if err != nil && !errors.Is(err, ErrNoKey) {
							t.Errorf("batch write slot %d: %v", i, err)
						}
					}
				} else {
					for i, r := range s.ReadBatch(context.Background(), addrs) {
						if r.Err != nil && !errors.Is(r.Err, ErrNoKey) {
							t.Errorf("batch read slot %d: %v", i, r.Err)
						}
					}
				}
			}
		}(g)
	}
	close(start)
	time.Sleep(500 * time.Microsecond) // let some shard runs get in flight
	if err := s.PowerOff(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if s.HasKey() {
		t.Error("key survives PowerOff")
	}
	if got := s.PlaintextBlocks(); got != 0 {
		t.Errorf("%d plaintext blocks after PowerOff", got)
	}
	// Power back on: every block written under the old key round-trips.
	if err := s.PowerOn(key); err != nil {
		t.Fatal(err)
	}
	for i, r := range s.ReadBatch(context.Background(), addrs) {
		if r.Err != nil {
			t.Errorf("read %d after power cycle: %v", i, r.Err)
		}
	}
}

// TestCoalescedReadBatchAllocRegression pins the per-op allocation budget
// of the coalesced ReadBatch path. Coalescing adds a constant number of
// allocations per batch (result slice, the batch closures, the run cursor
// and its order slice, one helper closure) on top of the per-op read, which
// allocates only the returned plaintext (1 alloc: crossbars are sensed
// straight into it, and the crypt kernel and the read-through allocate
// nothing warm). A 64-op batch measured 1.2/op; the ceiling leaves ~2/op
// for pool worker respawns and scheduling jitter but fails if per-run task
// closures, per-crossbar read-out buffers or per-call crypt allocations
// return.
func TestCoalescedReadBatchAllocRegression(t *testing.T) {
	withProcs(t, 4)
	s, addrs := benchSPECU(t, 64)
	if err := s.Serve(context.Background(), 4, 64); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	// Warm: fabricate every block and let the adaptive pool reach steady
	// state before counting.
	for _, r := range s.ReadBatch(ctx, addrs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		res := s.ReadBatch(ctx, addrs)
		if res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
	})
	perOp := avg / float64(len(addrs))
	const ceiling = 3
	if perOp > ceiling {
		t.Errorf("coalesced ReadBatch allocates %.1f/op (%.0f/batch of %d), ceiling %d",
			perOp, avg, len(addrs), ceiling)
	}
}

// TestAdaptivePoolGrowShrink drives the adaptive sizing policy end to
// end: sustained submission pressure against blocked workers must grow
// the live set toward the cap, and idleness after the backlog drains must
// shrink it back to the floor, with the decision trail visible in the
// telemetry counters and gauges.
func TestAdaptivePoolGrowShrink(t *testing.T) {
	withProcs(t, 4)
	p := NewPool(1, 4, 64)
	defer p.Close()
	if got := p.Workers(); got != 4 {
		t.Fatalf("Workers() = %d, want cap 4", got)
	}
	if got := p.ActiveWorkers(); got != 1 {
		t.Fatalf("ActiveWorkers() = %d at start, want floor 1", got)
	}
	reg := telemetry.New()
	p.SetTelemetry(reg)

	release := make(chan struct{})
	var wg sync.WaitGroup
	submit := func() {
		wg.Add(1)
		submitWait(t, p, func() {
			<-release
			wg.Done()
		})
	}
	// Keep submitting blockers until the pool has grown to the cap; each
	// enqueue that finds every live worker busy counts as pressure.
	deadline := time.Now().Add(5 * time.Second)
	for p.ActiveWorkers() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never grew past %d workers", p.ActiveWorkers())
		}
		submit()
		time.Sleep(200 * time.Microsecond)
	}
	close(release)
	wg.Wait()

	// All workers idle now: the live set must retire back to the floor.
	deadline = time.Now().Add(5 * time.Second)
	for p.ActiveWorkers() > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("pool never shrank, still %d workers", p.ActiveWorkers())
		}
		time.Sleep(time.Millisecond)
	}

	snap := reg.Snapshot()
	if snap.Counters["specu.pool.grows"] < 3 {
		t.Errorf("specu.pool.grows = %d, want >= 3", snap.Counters["specu.pool.grows"])
	}
	if snap.Counters["specu.pool.shrinks"] < 3 {
		t.Errorf("specu.pool.shrinks = %d, want >= 3", snap.Counters["specu.pool.shrinks"])
	}
	if got := snap.Gauges["specu.pool.active_workers"]; got != 1 {
		t.Errorf("specu.pool.active_workers gauge = %d, want 1", got)
	}
	// The decision trail records both directions.
	var grows, shrinks int
	for _, ev := range reg.Recorder().Events(reg.Recorder().Cap()) {
		if ev.Subsystem != "pool" {
			continue
		}
		switch ev.Name {
		case "grow":
			grows++
		case "shrink":
			shrinks++
		}
	}
	if grows == 0 || shrinks == 0 {
		t.Errorf("decision trail: %d grow / %d shrink events, want both > 0", grows, shrinks)
	}
}

// TestBatchDispatchPolicy pins where the inline/coalesced boundary sits:
// batches at or under inlineBatchMax run inline even with a multi-worker
// pool serving, one op over the threshold coalesces, and a workers=1 pool
// always dispatches inline regardless of batch size — so small batches
// and single-core hosts can never pay dispatch overhead.
func TestBatchDispatchPolicy(t *testing.T) {
	withProcs(t, 4)
	e := engineForTest(t)

	probe := func(s *SPECU, n int) (inline, locked int64) {
		var inlineCalls, lockedCalls atomic.Int64
		s.runBatch(context.Background(), &batchOps{
			n:      n,
			addr:   func(i int) uint64 { return uint64(i) * BlockSize },
			inline: func(i int, tc trace.Context) { inlineCalls.Add(1) },
			locked: func(i, si int, sh *shard, key prng.Key, tc trace.Context) {
				lockedCalls.Add(1)
			},
			fail: func(i int, err error) { t.Errorf("op %d failed: %v", i, err) },
		})
		return inlineCalls.Load(), lockedCalls.Load()
	}

	s := NewSPECU(e, Parallel)
	if err := s.PowerOn(prng.NewKey(0x111, 0x222)); err != nil {
		t.Fatal(err)
	}
	// No pool attached: always inline.
	if in, lk := probe(s, 2*inlineBatchMax); in != 2*inlineBatchMax || lk != 0 {
		t.Errorf("no pool: inline=%d locked=%d, want all inline", in, lk)
	}
	if err := s.Serve(context.Background(), 4, 0); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// At the threshold: inline despite the serving pool.
	if in, lk := probe(s, inlineBatchMax); in != inlineBatchMax || lk != 0 {
		t.Errorf("n=max: inline=%d locked=%d, want all inline", in, lk)
	}
	// One over: every op runs through a coalesced shard run.
	if in, lk := probe(s, inlineBatchMax+1); in != 0 || lk != inlineBatchMax+1 {
		t.Errorf("n=max+1: inline=%d locked=%d, want all coalesced", in, lk)
	}

	// A workers=1 pool cannot run anything in parallel: inline always.
	s1 := NewSPECU(e, Parallel)
	if err := s1.PowerOn(prng.NewKey(0x333, 0x444)); err != nil {
		t.Fatal(err)
	}
	if err := s1.Serve(context.Background(), 1, 0); err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	if in, lk := probe(s1, 8*inlineBatchMax); in != 8*inlineBatchMax || lk != 0 {
		t.Errorf("workers=1: inline=%d locked=%d, want all inline", in, lk)
	}
}

// TestCoalescedRunsEachOpOnce drives runCoalesced directly at workers 1, 2
// and 4 (workers=1 has no helpers: the caller drains every run alone) over
// a batch with duplicate addresses and a skewed one. Every op must run
// exactly once, inside the run of its own shard, with the ops of one run in
// input order, and every result slot must hold its own op's result. At
// workers=1 the runs execute in cursor order, which must be longest run
// first, ties by shard index; the skewed input gives shard si a run of
// 1+si%4 ops, so run length and shard index disagree.
func TestCoalescedRunsEachOpOnce(t *testing.T) {
	withProcs(t, 4)
	e := engineForTest(t)
	mixed := make([]uint64, 200)
	for i := range mixed {
		mixed[i] = uint64((i*37)%91) * BlockSize
	}
	var skewed []uint64
	var have [NumShards]int
	for a := uint64(0); len(skewed) < 80; a += BlockSize {
		if si := shardIndex(a); have[si] < 1+si%4 {
			have[si]++
			skewed = append(skewed, a)
		}
	}
	for _, in := range []struct {
		name  string
		addrs []uint64
	}{{"mixed", mixed}, {"skewed", skewed}} {
		addrs := in.addrs
		n := len(addrs)
		runLen := make(map[int]int)
		for _, a := range addrs {
			runLen[shardIndex(a)]++
		}
		for _, workers := range []int{1, 2, 4} {
			s := NewSPECU(e, Parallel)
			if err := s.PowerOn(prng.NewKey(0xC0, 0x5E)); err != nil {
				t.Fatal(err)
			}
			p := NewPool(workers, workers, 0)
			runs := make([]atomic.Int32, n)
			res := make([]uint64, n)
			// last[si] is written only inside shard si's run, which holds
			// the shard lock, so runs of one shard never race on it.
			var last [NumShards]int
			for si := range last {
				last[si] = -1
			}
			// order is appended only at workers=1, where the caller runs
			// every shard run itself.
			var order []int
			s.runCoalesced(context.Background(), p, &batchOps{
				n:      n,
				addr:   func(i int) uint64 { return addrs[i] },
				inline: func(i int, tc trace.Context) { t.Errorf("op %d ran inline", i) },
				locked: func(i, si int, sh *shard, key prng.Key, tc trace.Context) {
					runs[i].Add(1)
					if want := shardIndex(addrs[i]); si != want {
						t.Errorf("op %d ran in shard %d, want %d", i, si, want)
					}
					if i <= last[si] {
						t.Errorf("shard %d ran op %d after op %d", si, i, last[si])
					}
					if workers == 1 && last[si] < 0 {
						order = append(order, si)
					}
					last[si] = i
					res[i] = addrs[i]
				},
				fail: func(i int, err error) { t.Errorf("op %d failed: %v", i, err) },
			}, trace.Context{})
			p.Close()
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Errorf("%s workers=%d: op %d ran %d times", in.name, workers, i, got)
				}
				if res[i] != addrs[i] {
					t.Errorf("%s workers=%d: slot %d holds %#x, want %#x", in.name, workers, i, res[i], addrs[i])
				}
			}
			for k := 1; k < len(order); k++ {
				prev, cur := order[k-1], order[k]
				if runLen[prev] < runLen[cur] || runLen[prev] == runLen[cur] && prev > cur {
					t.Errorf("%s: shard %d (%d ops) ran before shard %d (%d ops), want longest first, ties by shard",
						in.name, prev, runLen[prev], cur, runLen[cur])
				}
			}
		}
	}
}

// TestServedPoolRunsOnlyBatchHelpers pins the SPECU's single parallelism
// level: the only tasks a served SPECU submits are coalesced batches'
// helpers, at most Workers()-1 per batch. Block crypts run serially inside
// their shard run, so no per-crossbar subtask reaches the pool. Close
// drains the queue, so afterwards tasks_done counts every accepted task.
func TestServedPoolRunsOnlyBatchHelpers(t *testing.T) {
	withProcs(t, 4)
	s, addrs := benchSPECU(t, 64)
	reg := telemetry.New()
	s.EnableTelemetry(reg)
	if err := s.Serve(context.Background(), 4, 0); err != nil {
		t.Fatal(err)
	}
	workers := s.pool.Load().Workers()
	const batches = 10
	for b := 0; b < batches; b++ {
		for i, r := range s.ReadBatch(context.Background(), addrs) {
			if r.Err != nil {
				t.Fatalf("batch %d slot %d: %v", b, i, r.Err)
			}
		}
	}
	s.Close()
	done := reg.Counter("specu.pool.tasks_done").Load()
	if limit := int64(batches * (workers - 1)); done == 0 || done > limit {
		t.Errorf("pool ran %d tasks for %d coalesced batches at %d workers, want 1..%d",
			done, batches, workers, limit)
	}
}

// TestNestedBatchInsidePoolTask issues a coalesced batch from inside a pool
// task while every worker is occupied: one runs the batch's caller, the
// other is parked until that batch returns, and the depth-1 queue holds
// the batch's helper task, which no worker can start. The caller must
// drain every run itself, cancel the helper and return instead of waiting
// for it.
func TestNestedBatchInsidePoolTask(t *testing.T) {
	withProcs(t, 2)
	s, addrs := benchSPECU(t, 32)
	p := NewPool(2, 2, 1)
	s.pool.Store(p)

	started := make(chan struct{})
	done := make(chan struct{})
	var res []ReadResult
	submitWait(t, p, func() {
		<-started // the other worker is parked: nobody can run a helper
		res = s.ReadBatch(context.Background(), addrs)
		close(done)
	})
	submitWait(t, p, func() {
		close(started)
		<-done
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		// No Close: it would wait on the deadlocked workers.
		t.Fatal("batch issued from inside a pool task never completed")
	}
	s.Close()
	if len(res) != len(addrs) {
		t.Fatalf("%d results for %d addresses", len(res), len(addrs))
	}
	for i, r := range res {
		if r.Err != nil || r.Addr != addrs[i] || len(r.Data) != BlockSize {
			t.Errorf("slot %d: addr %#x, %d bytes, err %v", i, r.Addr, len(r.Data), r.Err)
		}
	}
}
