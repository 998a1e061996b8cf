package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"snvmm/internal/prng"
	"snvmm/internal/telemetry"
	"snvmm/internal/telemetry/trace"
)

// TestTracePropagationAcrossPowerOff races traced coalesced batches
// against the PowerOff barrier (run it under -race) and then checks the
// causal invariants of everything the ring recorded: every non-root span's
// parent exists and carries the same trace ID, and the Chrome export of
// the same ring passes the schema validator (monotone timestamps per tid,
// well-nested, every parent resolvable).
func TestTracePropagationAcrossPowerOff(t *testing.T) {
	withProcs(t, 4)
	e := engineForTest(t)
	s := NewSPECU(e, Serial)
	// Ring large enough that nothing from this workload is overwritten:
	// orphan pruning must find zero candidates, not paper over them.
	tr := trace.New(1 << 18)
	s.EnableTracing(tr)
	key := prng.NewKey(0x7A0, 0x7CE)
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
	if err := s.PowerOn(key); err != nil {
		t.Fatal(err)
	}
	for i, r := range s.ReadBatch(context.Background(), addrs) {
		if r.Err != nil {
			t.Errorf("read %d after power cycle: %v", i, r.Err)
		}
	}

	recs := tr.Spans(tr.Cap())
	if len(recs) == 0 {
		t.Fatal("tracer recorded nothing")
	}
	byID := make(map[uint64]trace.SpanRecord, len(recs))
	for _, r := range recs {
		byID[r.SpanID] = r
	}
	names := map[string]int{}
	for _, r := range recs {
		names[r.Subsystem+"."+r.Name]++
		if r.ParentID == 0 {
			if r.TraceID != r.SpanID {
				t.Errorf("root span %d: trace ID %d != span ID", r.SpanID, r.TraceID)
			}
			continue
		}
		p, ok := byID[r.ParentID]
		if !ok {
			t.Errorf("span %d (%s.%s): parent %d not recorded (orphan)",
				r.SpanID, r.Subsystem, r.Name, r.ParentID)
			continue
		}
		if p.TraceID != r.TraceID {
			t.Errorf("span %d: trace ID %d but parent %d has %d",
				r.SpanID, r.TraceID, p.SpanID, p.TraceID)
		}
	}
	// The full batch hierarchy must have shown up: roots, shard runs,
	// per-op spans, and block crypts.
	for _, want := range []string{
		"specu.write_batch", "specu.read_batch", "specu.shard_run",
		"specu.write", "specu.read", "specu.encrypt", "specu.decrypt",
	} {
		if names[want] == 0 {
			t.Errorf("no %s spans recorded (got %v)", want, names)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, tr.Cap()); err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Errorf("Chrome export invalid: %v", err)
	}
}

// TestPoolStealRate pins the steal-rate accounting: the rate is
// steals/(steals+completed), exported live on the specu.pool.steal_rate
// gauge.
func TestPoolStealRate(t *testing.T) {
	withProcs(t, 4)
	p := NewPool(1, 2, 8)
	defer p.Close()
	reg := telemetry.New()
	p.SetTelemetry(reg)

	if got := p.StealRate(); got != 0 {
		t.Errorf("StealRate() = %v before any work, want 0", got)
	}
	for i := 0; i < 3; i++ {
		submitWait(t, p, func() {})
	}
	// A task counts as done only after it returns, so wait on the pool's
	// own count rather than on a signal from inside the tasks.
	for p.done.Load() < 3 {
		time.Sleep(50 * time.Microsecond)
	}
	p.NoteSteal()
	if got, want := p.StealRate(), 0.25; got != want {
		t.Errorf("StealRate() = %v after 1 steal / 3 tasks, want %v", got, want)
	}
	if got := reg.FloatGauge("specu.pool.steal_rate").Load(); got != 0.25 {
		t.Errorf("steal_rate gauge = %v, want 0.25", got)
	}
	if got := reg.Counter("specu.pool.steals").Load(); got != 1 {
		t.Errorf("steals counter = %d, want 1", got)
	}
}

// TestCoalescedBatchStealRateSignal drives a coalesced batch through a
// served pool and checks the steal accounting moved. A steal is a shard run
// the batch's caller executed itself from the shared run cursor rather than
// a pool helper. The caller starts taking runs as soon as its helpers are
// offered, so a 64-op batch (~27 runs) records steals.
func TestCoalescedBatchStealRateSignal(t *testing.T) {
	withProcs(t, 4)
	s, addrs := benchSPECU(t, 64)
	reg := telemetry.New()
	s.EnableTelemetry(reg)
	if err := s.Serve(context.Background(), 2, 1); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, r := range s.ReadBatch(context.Background(), addrs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	p := s.pool.Load()
	if p == nil {
		t.Fatal("no pool attached")
	}
	if p.steals.Load() == 0 {
		t.Error("no caller-executed runs recorded as steals")
	}
	if rate := p.StealRate(); rate <= 0 || rate > 1 {
		t.Errorf("StealRate() = %v, want in (0, 1]", rate)
	}
}
