package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"snvmm/internal/telemetry/trace"
)

// The batched service layer: a SPECU fronting main memory must service
// many outstanding L2 misses at once. Serve gives the SPECU a budget of
// helper goroutines; the *Batch methods then dispatch through a
// shard-coalescing scheduler — ops are grouped into ONE run per touched
// shard, so a run of same-shard ops pays the key snapshot and shard lock
// once instead of once per op, and two runs never contend on the same
// shard lock; the caller and its helpers drain the runs from a shared
// cursor. A shard run is the SPECU's only unit of parallel work: the blocks
// inside it crypt serially. Small batches and workers==1 budgets take an
// inline sequential path so dispatch overhead can never lose to the plain
// sequential loop.
// Without Serve the batch methods degrade to that same inline path, so
// callers need not care which mode the unit is in.

// WriteOp is one element of a WriteBatch: store Data (BlockSize bytes) at
// Addr.
type WriteOp struct {
	Addr uint64
	Data []byte
}

// ReadResult is one element of a ReadBatch result.
type ReadResult struct {
	Addr uint64
	Data []byte
	Err  error
}

// inlineBatchMax is the largest batch that always dispatches inline. A
// handful of ops cannot amortize the run sort plus a helper goroutine's
// start and join, so batches at or under this size run the caller's
// goroutine straight through the sequential path.
const inlineBatchMax = 8

// Serve lets coalesced batches run on up to workers goroutines (resolved
// by sched.Workers; <= 0 selects the host's schedulable parallelism): the
// batch's caller plus helpers drawn from a budget of workers-1 tokens shared by every batch on this
// SPECU. depth is unused; it remains so existing callers compile.
// Cancelling ctx detaches the budget as Close does. Serve fails with
// ErrServing if a budget is already attached.
func (s *SPECU) Serve(ctx context.Context, workers, depth int) error {
	if ctx == nil {
		ctx = context.Background()
	}
	b := newHelperBudget(workers)
	b.stop = context.AfterFunc(ctx, func() { s.budget.CompareAndSwap(b, nil) })
	if t := s.tel.Load(); t != nil {
		wirePool(b, t.reg)
	}
	if !s.budget.CompareAndSwap(nil, b) {
		b.stop()
		return ErrServing
	}
	// A ctx cancelled before the CAS ran the watcher too early to detach.
	if ctx.Err() != nil {
		s.budget.CompareAndSwap(b, nil)
	}
	return nil
}

// Serving reports whether a helper budget is attached.
func (s *SPECU) Serving() bool { return s.budget.Load() != nil }

// Close detaches the helper budget, if any. Batches already running finish
// on the helpers they hold; synchronous operations keep working, and later
// batch operations take the sequential path.
func (s *SPECU) Close() {
	if b := s.budget.Swap(nil); b != nil {
		b.stop()
	}
}

// batchOps describes one batch to the scheduler. Each op owns result slot i
// exclusively; the scheduler's final WaitGroup (or the inline loop's
// completion) publishes those writes to the caller.
type batchOps struct {
	n    int
	addr func(i int) uint64
	// inline runs op i on the caller's goroutine, taking its own locks
	// (the sequential path). tc is the op's causal trace context (zero
	// when tracing is off), so inline ops keep their crypt/pulse children.
	inline func(i int, tc trace.Context)
	// locked runs op i inside a coalesced shard run: the run holds keyMu
	// (shared) and shard si's lock (exclusive) for its whole duration.
	// tc is the op's causal trace context (zero when tracing is off).
	locked func(i, si int, sh *shard, key loadedKey, tc trace.Context)
	// fail records err for an op the scheduler never ran (cancellation,
	// missing key discovered at run start).
	fail func(i int, err error)
	// meta/opMeta are the interned trace call sites of the batch root and
	// its per-op child spans.
	meta   *trace.SpanMeta
	opMeta *trace.SpanMeta
}

// runBatch dispatches a batch: inline when no budget is attached, the
// budget allows no parallelism anyway (one worker), or the batch is too
// small to amortize dispatch; coalesced otherwise.
// With a tracer attached the batch becomes a trace root (A0 = op count,
// A1 = 1 when the coalesced path ran); detached, the root is a zero-value
// no-op and the whole batch allocates nothing extra.
func (s *SPECU) runBatch(ctx context.Context, ops *batchOps) {
	if ctx == nil {
		ctx = context.Background()
	}
	root := s.tracer.Load().Root(ops.meta)
	b := s.budget.Load()
	if b == nil || b.workers == 1 || ops.n <= inlineBatchMax {
		tc := root.Context()
		for i := 0; i < ops.n; i++ {
			if err := ctx.Err(); err != nil {
				ops.fail(i, err)
				continue
			}
			osp := tc.Start(ops.opMeta)
			ops.inline(i, osp.Context())
			osp.End(int64(i), 0)
		}
		root.End(int64(ops.n), 0)
		return
	}
	s.runCoalesced(ctx, b, ops, root.Context())
	root.End(int64(ops.n), 1)
}

// shardRun is one coalesced run: the batch ops order[lo:hi], all hashing
// to shard si, in input order.
type shardRun struct {
	si     int
	lo, hi int32
}

// runCursor is the shared work list of one coalesced batch. The caller and
// its helpers all take runs from next; wg counts the running helpers.
type runCursor struct {
	order []int32
	runs  [NumShards]shardRun
	nruns int32
	next  atomic.Int32
	wg    sync.WaitGroup
}

// drain executes runs from the shared cursor until none are left. byCaller
// marks runs the batch's own goroutine executed; their trace spans carry
// the flag.
func (c *runCursor) drain(ctx context.Context, s *SPECU, ops *batchOps, tc trace.Context, byCaller bool) {
	for {
		r := c.next.Add(1) - 1
		if r >= c.nruns {
			return
		}
		run := c.runs[r]
		s.runShard(ctx, run.si, c.order[run.lo:run.hi], ops, tc, byCaller)
	}
}

// runCoalesced groups the batch's ops by shard with a counting sort into
// one run per touched shard, orders the runs longest first (ties by shard
// index), and drains them through one shared cursor: the caller and one
// helper goroutine per budget token it took each take the next unclaimed
// run until none are left, so every claimant stays busy until the batch's
// last run starts and no run waits while a claimant is idle. Longest-first
// puts the straggler runs at the front, so the batch ends on short runs
// instead of one claimant finishing a long run alone. Each run has exactly one
// claimant, and within a run ops execute in input order (the counting sort
// is stable), so per-slot results are deterministic for any worker count.
//
// The batch takes min(free tokens, runs-1) tokens and starts a goroutine
// per token, so it waits only on helpers that are already running: a batch
// that finds every token held drains alone and cannot deadlock. Each
// helper gives its token back before wg.Done, so the caller's next batch
// finds it free.
func (s *SPECU) runCoalesced(ctx context.Context, b *helperBudget, ops *batchOps, tc trace.Context) {
	n := ops.n
	c := &runCursor{order: make([]int32, n)}
	var counts [NumShards + 1]int32
	for i := 0; i < n; i++ {
		counts[shardIndex(ops.addr(i))+1]++
	}
	for si := 1; si <= NumShards; si++ {
		counts[si] += counts[si-1]
	}
	// counts[si] is now the start offset of shard si's run in order.
	next := counts
	for i := 0; i < n; i++ {
		si := shardIndex(ops.addr(i))
		c.order[next[si]] = int32(i)
		next[si]++
	}
	for si := 0; si < NumShards; si++ {
		if counts[si] == counts[si+1] {
			continue
		}
		c.runs[c.nruns] = shardRun{si: si, lo: counts[si], hi: counts[si+1]}
		c.nruns++
	}
	// Stable, and the runs were emitted in shard order: ties keep it.
	slices.SortStableFunc(c.runs[:c.nruns], func(a, b shardRun) int {
		return int((b.hi - b.lo) - (a.hi - a.lo))
	})

	helpers := b.take(int(c.nruns) - 1)
	c.wg.Add(helpers)
	help := func() {
		c.drain(ctx, s, ops, tc, false)
		b.give()
		c.wg.Done()
	}
	for range helpers {
		go help()
	}
	c.drain(ctx, s, ops, tc, true)
	c.wg.Wait()
}

// runShard executes one coalesced run: every batch op that hashed to shard
// si, in input order, under a single keyMu (shared) + shard lock
// acquisition. Cancellation is checked between ops; the remainder of a
// cancelled run fails with ctx.Err() without touching the shard further.
// Holding keyMu for the run's duration widens the PowerOff barrier to run
// granularity: a power-off concurrent with a batch waits for in-flight
// runs and the rest of the batch's runs complete under the old key or fail
// with ErrNoKey, never a mix within one run.
//
// The run's trace span lives on the shard's lane and opens only after the
// shard lock is held, so one lane's spans never overlap; A0 reports ops
// completed, A1 = 1 when the batch's caller ran it rather than a helper.
func (s *SPECU) runShard(ctx context.Context, si int, run []int32, ops *batchOps, tc trace.Context, byCaller bool) {
	if err := ctx.Err(); err != nil {
		for _, i := range run {
			ops.fail(int(i), err)
		}
		return
	}
	s.keyMu.RLock()
	defer s.keyMu.RUnlock()
	key, err := s.snapshotKey()
	if err != nil {
		for _, i := range run {
			ops.fail(int(i), err)
		}
		return
	}
	sh := &s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var callerRan int64
	if byCaller {
		callerRan = 1
	}
	sp := tc.WithLane(uint32(laneShardBase + si)).Start(traceMetaShardRun)
	for k, i := range run {
		if err := ctx.Err(); err != nil {
			for _, j := range run[k:] {
				ops.fail(int(j), err)
			}
			sp.End(int64(k), callerRan)
			return
		}
		osp := sp.Context().Start(ops.opMeta)
		ops.locked(int(i), si, sh, key, osp.Context())
		osp.End(0, 0)
	}
	sp.End(int64(len(run)), callerRan)
}

// WriteBatch stores every op's block, returning one error slot per op
// (nil on success). Ops are coalesced into one run per touched shard when
// the SPECU is serving, so distinct shards encrypt concurrently.
func (s *SPECU) WriteBatch(ctx context.Context, ops []WriteOp) []error {
	errs := make([]error, len(ops))
	s.runBatch(ctx, &batchOps{
		n:    len(ops),
		addr: func(i int) uint64 { return ops[i].Addr },
		inline: func(i int, tc trace.Context) {
			t := s.tel.Load()
			start := t.now()
			errs[i] = s.writeCtx(ops[i].Addr, ops[i].Data, tc)
			t.observeWrite(shardIndex(ops[i].Addr), start)
		},
		locked: func(i, si int, sh *shard, key loadedKey, tc trace.Context) {
			t := s.tel.Load()
			start := t.now()
			errs[i] = s.writeLocked(si, sh, key, ops[i].Addr, ops[i].Data, tc)
			t.observeWrite(si, start)
		},
		fail:   func(i int, err error) { errs[i] = err },
		meta:   traceMetaWriteBatch,
		opMeta: traceMetaWrite,
	})
	return errs
}

// ReadBatch reads every address, returning one ReadResult per input in
// input order. Blocks in different shards decrypt concurrently when the
// SPECU is serving.
func (s *SPECU) ReadBatch(ctx context.Context, addrs []uint64) []ReadResult {
	res := make([]ReadResult, len(addrs))
	s.runBatch(ctx, &batchOps{
		n:    len(addrs),
		addr: func(i int) uint64 { return addrs[i] },
		inline: func(i int, tc trace.Context) {
			t := s.tel.Load()
			start := t.now()
			data, err := s.readCtx(addrs[i], tc)
			t.observeRead(shardIndex(addrs[i]), start)
			res[i] = ReadResult{Addr: addrs[i], Data: data, Err: err}
		},
		locked: func(i, si int, sh *shard, key loadedKey, tc trace.Context) {
			t := s.tel.Load()
			start := t.now()
			data, err := s.readLocked(si, sh, key, addrs[i], tc)
			t.observeRead(si, start)
			res[i] = ReadResult{Addr: addrs[i], Data: data, Err: err}
		},
		fail: func(i int, err error) {
			res[i] = ReadResult{Addr: addrs[i], Err: err}
		},
		meta:   traceMetaReadBatch,
		opMeta: traceMetaRead,
	})
	return res
}

// EncryptBatch encrypts the blocks at addrs in place (the bulk form of the
// Serial-mode background flush). A nil addrs slice selects every currently
// plaintext block. Already-encrypted blocks are no-ops; unknown addresses
// report ErrNoBlock.
func (s *SPECU) EncryptBatch(ctx context.Context, addrs []uint64) []error {
	if addrs == nil {
		addrs = s.plaintextAddrs()
	}
	return s.cryptBatch(ctx, addrs, false)
}

// DecryptBatch decrypts the blocks at addrs in place, leaving them
// plaintext-resident — the bulk read-ahead primitive for Serial mode (a
// burst of upcoming reads pays the pulse latency once, up front).
func (s *SPECU) DecryptBatch(ctx context.Context, addrs []uint64) []error {
	return s.cryptBatch(ctx, addrs, true)
}

func (s *SPECU) cryptBatch(ctx context.Context, addrs []uint64, decrypt bool) []error {
	errs := make([]error, len(addrs))
	s.runBatch(ctx, &batchOps{
		n:    len(addrs),
		addr: func(i int) uint64 { return addrs[i] },
		inline: func(i int, tc trace.Context) {
			errs[i] = s.cryptAtCtx(addrs[i], decrypt, tc)
		},
		locked: func(i, si int, sh *shard, key loadedKey, tc trace.Context) {
			errs[i] = s.cryptLocked(si, sh, key, addrs[i], decrypt, tc)
		},
		fail:   func(i int, err error) { errs[i] = err },
		meta:   traceMetaCryptBatch,
		opMeta: traceMetaCrypt,
	})
	return errs
}

// cryptAt encrypts (decrypt=false) or decrypts (decrypt=true) the resident
// block at addr in place. Transitions that are already satisfied are
// no-ops.
func (s *SPECU) cryptAt(addr uint64, decrypt bool) error {
	return s.cryptAtCtx(addr, decrypt, trace.Context{})
}

// cryptAtCtx is cryptAt with the op's causal trace context (see writeCtx).
func (s *SPECU) cryptAtCtx(addr uint64, decrypt bool, tc trace.Context) error {
	s.keyMu.RLock()
	defer s.keyMu.RUnlock()
	key, err := s.snapshotKey()
	if err != nil {
		return err
	}
	si := shardIndex(addr)
	sh := &s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.cryptLocked(si, sh, key, addr, decrypt, tc)
}

// cryptLocked is the cryptAt body. Same locking contract as writeLocked.
func (s *SPECU) cryptLocked(si int, sh *shard, key loadedKey, addr uint64, decrypt bool, tc trace.Context) error {
	b, ok := sh.blocks[addr]
	if !ok {
		return errNoBlockAt(addr)
	}
	if b.Encrypted() != decrypt {
		return nil // already in the requested state
	}
	return s.blockCrypt(si, b, key, addr, decrypt, tc)
}

// plaintextAddrs snapshots the addresses of currently plaintext blocks.
func (s *SPECU) plaintextAddrs() []uint64 {
	var out []uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for addr, b := range sh.blocks {
			if !b.Encrypted() {
				out = append(out, addr)
			}
		}
		sh.mu.RUnlock()
	}
	return out
}
