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
	"snvmm/internal/sched"
	"snvmm/internal/telemetry/trace"
)

// withProcs pins GOMAXPROCS and the host CPU count sched.Workers clamps
// to for the test's duration. The coalescing scheduler only engages when
// the worker count resolves above 1, and these tests assert the budgets of
// workers 4 and 8, so on a host with fewer CPUs they raise the schedulable
// parallelism (legal above the physical core count) to exercise the
// parallel path at the worker counts they name.
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	restore := sched.PinHostCPUs(n)
	t.Cleanup(func() {
		restore()
		runtime.GOMAXPROCS(old)
	})
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
// and its order slice, the helper goroutines) on top of the per-op read,
// which allocates only the returned plaintext (1 alloc: crossbars are sensed
// straight into it, and the crypt kernel and the read-through allocate
// nothing warm). A 64-op batch measured 1.2/op; the ceiling leaves ~2/op
// for goroutine starts and scheduling jitter but fails if per-run task
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
	// Warm: fabricate every block before counting.
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

// TestBatchDispatchPolicy pins where the inline/coalesced boundary sits:
// batches at or under inlineBatchMax run inline even with a multi-worker
// budget serving, one op over the threshold coalesces, and a workers=1
// budget always dispatches inline regardless of batch size — so small batches
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
	// No budget attached: always inline.
	if in, lk := probe(s, 2*inlineBatchMax); in != 2*inlineBatchMax || lk != 0 {
		t.Errorf("not serving: inline=%d locked=%d, want all inline", in, lk)
	}
	if err := s.Serve(context.Background(), 4, 0); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// At the threshold: inline despite the serving budget.
	if in, lk := probe(s, inlineBatchMax); in != inlineBatchMax || lk != 0 {
		t.Errorf("n=max: inline=%d locked=%d, want all inline", in, lk)
	}
	// One over: every op runs through a coalesced shard run.
	if in, lk := probe(s, inlineBatchMax+1); in != 0 || lk != inlineBatchMax+1 {
		t.Errorf("n=max+1: inline=%d locked=%d, want all coalesced", in, lk)
	}

	// A workers=1 budget cannot run anything in parallel: inline always.
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
			b := newHelperBudget(workers)
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
			s.runCoalesced(context.Background(), b, &batchOps{
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
			if got := b.free.Load(); got != int64(workers-1) {
				t.Errorf("%s workers=%d: %d helper tokens free after the batch, want %d", in.name, workers, got, workers-1)
			}
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

// probeBatch runs an n-op batch over addresses 0, BlockSize, ... through
// runBatch and counts how many times each op ran in a coalesced shard run.
// onLocked, when non-nil, runs first inside every coalesced op.
func probeBatch(t *testing.T, s *SPECU, n int, onLocked func()) []atomic.Int32 {
	t.Helper()
	runs := make([]atomic.Int32, n)
	s.runBatch(context.Background(), &batchOps{
		n:      n,
		addr:   func(i int) uint64 { return uint64(i) * BlockSize },
		inline: func(i int, tc trace.Context) { t.Errorf("op %d ran inline", i) },
		locked: func(i, si int, sh *shard, key prng.Key, tc trace.Context) {
			if onLocked != nil {
				onLocked()
			}
			runs[i].Add(1)
		},
		fail: func(i int, err error) { t.Errorf("op %d failed: %v", i, err) },
	})
	return runs
}

// checkRanOnce fails the test for every op that did not run exactly once.
func checkRanOnce(t *testing.T, runs []atomic.Int32) {
	t.Helper()
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Errorf("op %d ran %d times, want 1", i, got)
		}
	}
}

// TestHelperBudgetConserved races coalesced read and write batches from
// four goroutines, one of them on a cancelled ctx, against a PowerOff
// mid-stream. However the batches interleave, the free token count stays
// in [0, workers-1] — helpers never outnumber the budget — and once every
// batch has returned all workers-1 tokens are free again.
func TestHelperBudgetConserved(t *testing.T) {
	withProcs(t, 4)
	s, addrs := benchSPECU(t, 64)
	if err := s.Serve(context.Background(), 4, 0); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := s.budget.Load()
	want := int64(b.workers - 1)
	if want != 3 {
		t.Fatalf("budget resolved %d helper tokens at workers=4, want 3", want)
	}
	ops := make([]WriteOp, len(addrs))
	for i := range ops {
		ops[i] = WriteOp{Addr: addrs[i], Data: batchPayload(i)}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ok := func(err error) bool {
		return err == nil || errors.Is(err, ErrNoKey) || errors.Is(err, context.Canceled)
	}

	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			if f := b.free.Load(); f < 0 || f > want {
				t.Errorf("free helper tokens = %d, want in [0, %d]", f, want)
			}
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	midStream := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			if g == 3 {
				ctx = cancelled
			}
			for iter := 0; iter < 6; iter++ {
				if g%2 == 0 {
					for i, err := range s.WriteBatch(ctx, ops) {
						if !ok(err) {
							t.Errorf("goroutine %d write slot %d: %v", g, i, err)
						}
					}
				} else {
					for i, r := range s.ReadBatch(ctx, addrs) {
						if !ok(r.Err) {
							t.Errorf("goroutine %d read slot %d: %v", g, i, r.Err)
						}
					}
				}
				if g == 0 && iter == 2 {
					close(midStream)
				}
			}
		}(g)
	}
	<-midStream
	if err := s.PowerOff(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(stop)
	<-sampled
	if got := b.free.Load(); got != want {
		t.Errorf("%d helper tokens free after every batch returned, want %d", got, want)
	}
}

// TestExhaustedBudgetBatchRunsEachOpOnce takes every helper token, as
// batches already in flight would, and issues a 64-op coalesced batch: it
// finds no token, so its caller drains every run alone instead of waiting
// for a helper, and each op runs exactly once.
func TestExhaustedBudgetBatchRunsEachOpOnce(t *testing.T) {
	withProcs(t, 4)
	s := NewSPECU(engineForTest(t), Parallel)
	if err := s.PowerOn(prng.NewKey(0xE7, 0x7E)); err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(context.Background(), 4, 0); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b := s.budget.Load()
	if got := b.take(b.workers); got != 3 {
		t.Fatalf("took %d helper tokens, want 3", got)
	}
	checkRanOnce(t, probeBatch(t, s, 64, nil))
	if got := b.free.Load(); got != 0 {
		t.Errorf("exhausted budget has %d free tokens after the batch, want 0", got)
	}
}

// TestCloseMidBatchThenServe closes the SPECU while a coalesced batch is
// inside a shard run and serves it again at once. The new budget starts
// with every token free, whatever the old batch holds; the old batch then
// finishes with each op run once and returns its tokens to the old budget.
func TestCloseMidBatchThenServe(t *testing.T) {
	withProcs(t, 4)
	s := NewSPECU(engineForTest(t), Parallel)
	if err := s.PowerOn(prng.NewKey(0xC1, 0x05)); err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(context.Background(), 4, 0); err != nil {
		t.Fatal(err)
	}
	old := s.budget.Load()
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	done := make(chan []atomic.Int32)
	go func() {
		done <- probeBatch(t, s, 64, func() {
			once.Do(func() {
				close(entered)
				<-release
			})
		})
	}()
	<-entered
	s.Close()
	if s.Serving() {
		t.Fatal("still serving after Close")
	}
	if err := s.Serve(context.Background(), 4, 0); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if nb := s.budget.Load(); nb == old || nb.free.Load() != 3 {
		t.Errorf("new budget has %d free tokens, want a fresh budget with 3", nb.free.Load())
	}
	close(release)
	checkRanOnce(t, <-done)
	if got := old.free.Load(); got != 3 {
		t.Errorf("old budget has %d free tokens after its batch returned, want 3", got)
	}
}
