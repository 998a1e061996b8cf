package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snvmm/internal/prng"
	"snvmm/internal/telemetry"
)

// TestSPECUParallelReadWrite hammers overlapping addresses from many
// goroutines. The invariant is linearizability per address: every read
// returns the payload of some write that was issued to that address (the
// shard lock serializes same-block pulse sequences, so torn blocks would
// show up as a payload nobody wrote).
func TestSPECUParallelReadWrite(t *testing.T) {
	e := engineForTest(t)
	s := NewSPECU(e, Parallel)
	if err := s.PowerOn(prng.NewKey(0xC0FFEE, 0xF00D)); err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(context.Background(), 4, 0); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const (
		goroutines = 8
		opsEach    = 12
		numAddrs   = 4 // few addresses -> heavy same-shard contention
	)
	// Pre-populate and record every payload ever written per address.
	written := make([]map[byte]bool, numAddrs)
	var writtenMu sync.Mutex
	pattern := func(tag byte) []byte {
		d := make([]byte, BlockSize)
		for i := range d {
			d[i] = tag ^ byte(i)
		}
		return d
	}
	for a := 0; a < numAddrs; a++ {
		written[a] = map[byte]bool{byte(a): true}
		if err := s.Write(uint64(a)*BlockSize, pattern(byte(a))); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*opsEach)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) * 7919))
			for op := 0; op < opsEach; op++ {
				a := rng.Intn(numAddrs)
				addr := uint64(a) * BlockSize
				if rng.Intn(2) == 0 {
					tag := byte(g*opsEach + op)
					// Record before issuing: a concurrent read may observe
					// the write the instant it lands.
					writtenMu.Lock()
					written[a][tag] = true
					writtenMu.Unlock()
					if err := s.Write(addr, pattern(tag)); err != nil {
						errCh <- fmt.Errorf("write %#x: %w", addr, err)
						return
					}
				} else {
					got, err := s.Read(addr)
					if err != nil {
						errCh <- fmt.Errorf("read %#x: %w", addr, err)
						return
					}
					tag := got[0]
					if !bytes.Equal(got, pattern(tag)) {
						errCh <- fmt.Errorf("read %#x: torn block", addr)
						return
					}
					writtenMu.Lock()
					ok := written[a][tag]
					writtenMu.Unlock()
					if !ok {
						errCh <- fmt.Errorf("read %#x: payload tag %d never written", addr, tag)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if s.PlaintextBlocks() != 0 {
		t.Errorf("parallel mode left %d plaintext blocks", s.PlaintextBlocks())
	}
}

// TestSPECUPowerOffInFlight powers off while reads and writes are in
// flight. Every operation must either complete under the old key or fail
// with ErrNoKey; after PowerOff returns, no plaintext may remain and the
// key must be gone.
func TestSPECUPowerOffInFlight(t *testing.T) {
	e := engineForTest(t)
	s := NewSPECU(e, Serial) // Serial: reads leave plaintext for the flush to find
	key := prng.NewKey(42, 43)
	if err := s.PowerOn(key); err != nil {
		t.Fatal(err)
	}
	const numAddrs = 6
	for a := 0; a < numAddrs; a++ {
		if err := s.Write(uint64(a)*BlockSize, make([]byte, BlockSize)); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	var completed, denied atomic.Int64
	start := make(chan struct{})
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for op := 0; op < 8; op++ {
				addr := uint64((g+op)%numAddrs) * BlockSize
				var err error
				if op%2 == 0 {
					_, err = s.Read(addr)
				} else {
					err = s.Write(addr, make([]byte, BlockSize))
				}
				switch {
				case err == nil:
					completed.Add(1)
				case errors.Is(err, ErrNoKey):
					denied.Add(1)
				default:
					t.Errorf("op on %#x: unexpected error %v", addr, err)
				}
			}
		}(g)
	}
	close(start)
	time.Sleep(time.Millisecond) // let some ops get in flight
	if err := s.PowerOff(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if s.HasKey() {
		t.Error("key survives PowerOff")
	}
	if n := s.PlaintextBlocks(); n != 0 {
		t.Errorf("%d plaintext blocks after PowerOff", n)
	}
	if completed.Load() == 0 && denied.Load() == 0 {
		t.Error("no operation ran at all")
	}
	// Power back on: everything must still round-trip.
	if err := s.PowerOn(key); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < numAddrs; a++ {
		if _, err := s.Read(uint64(a) * BlockSize); err != nil {
			t.Errorf("read %#x after power cycle: %v", a*BlockSize, err)
		}
	}
}

// TestSPECUTypedErrors pins the error contract of the key lifecycle.
func TestSPECUTypedErrors(t *testing.T) {
	e := engineForTest(t)
	s := NewSPECU(e, Parallel)

	if err := s.Write(0, make([]byte, BlockSize)); !errors.Is(err, ErrNoKey) {
		t.Errorf("keyless Write: got %v, want ErrNoKey", err)
	}
	if _, err := s.Read(0); !errors.Is(err, ErrNoKey) {
		t.Errorf("keyless Read: got %v, want ErrNoKey", err)
	}
	if err := s.EncryptPending(); !errors.Is(err, ErrNoKey) {
		t.Errorf("keyless EncryptPending: got %v, want ErrNoKey", err)
	}

	key := prng.NewKey(1, 2)
	if err := s.PowerOn(key); err != nil {
		t.Fatal(err)
	}
	if err := s.PowerOn(key); err != nil {
		t.Errorf("re-PowerOn with same key: %v", err)
	}
	if err := s.PowerOn(prng.NewKey(3, 4)); !errors.Is(err, ErrKeyLoaded) {
		t.Errorf("PowerOn with different key: got %v, want ErrKeyLoaded", err)
	}
	if _, err := s.Read(0x1000); !errors.Is(err, ErrNoBlock) {
		t.Errorf("Read of unwritten address: got %v, want ErrNoBlock", err)
	}
	if _, err := s.Steal(0x1000); !errors.Is(err, ErrNoBlock) {
		t.Errorf("Steal of unwritten address: got %v, want ErrNoBlock", err)
	}
	// Double PowerOff with nothing resident is fine.
	if err := s.PowerOff(); err != nil {
		t.Fatal(err)
	}
	if err := s.PowerOff(); err != nil {
		t.Errorf("idle double PowerOff: %v", err)
	}
}

// TestSPECUServeLifecycle covers the Serve/Close contract and batch
// fallback.
func TestSPECUServeLifecycle(t *testing.T) {
	e := engineForTest(t)
	s := NewSPECU(e, Parallel)
	if err := s.PowerOn(prng.NewKey(9, 9)); err != nil {
		t.Fatal(err)
	}
	if s.Serving() {
		t.Error("serving before Serve")
	}
	if err := s.Serve(context.Background(), 2, 4); err != nil {
		t.Fatal(err)
	}
	if !s.Serving() {
		t.Error("not serving after Serve")
	}
	if err := s.Serve(context.Background(), 2, 4); !errors.Is(err, ErrServing) {
		t.Errorf("double Serve: got %v, want ErrServing", err)
	}
	s.Close()
	if s.Serving() {
		t.Error("still serving after Close")
	}
	// Batch ops fall back to the sequential path after Close.
	data := make([]byte, BlockSize)
	if errs := s.WriteBatch(context.Background(), []WriteOp{{Addr: 0, Data: data}}); errs[0] != nil {
		t.Errorf("fallback WriteBatch: %v", errs[0])
	}
	res := s.ReadBatch(context.Background(), []uint64{0})
	if res[0].Err != nil || !bytes.Equal(res[0].Data, data) {
		t.Errorf("fallback ReadBatch: %+v", res[0])
	}

	// Context cancellation detaches the helper budget.
	ctx, cancel := context.WithCancel(context.Background())
	if err := s.Serve(ctx, 2, 4); err != nil {
		t.Fatal(err)
	}
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for s.Serving() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Serving() {
		t.Error("budget still attached after context cancellation")
	}
}

// TestSPECUBatchCancellation verifies that a cancelled context fails
// batched operations with context.Canceled rather than hanging.
func TestSPECUBatchCancellation(t *testing.T) {
	e := engineForTest(t)
	s := NewSPECU(e, Parallel)
	if err := s.PowerOn(prng.NewKey(5, 6)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	errs := s.WriteBatch(ctx, []WriteOp{{Addr: 0, Data: make([]byte, BlockSize)}})
	if !errors.Is(errs[0], context.Canceled) {
		t.Errorf("cancelled WriteBatch: got %v, want context.Canceled", errs[0])
	}
	res := s.ReadBatch(ctx, []uint64{0})
	if !errors.Is(res[0].Err, context.Canceled) {
		t.Errorf("cancelled ReadBatch: got %v, want context.Canceled", res[0].Err)
	}
}

// TestSPECUBatchRoundTrip exercises WriteBatch/ReadBatch/EncryptBatch/
// DecryptBatch through a served SPECU across many shards.
func TestSPECUBatchRoundTrip(t *testing.T) {
	e := engineForTest(t)
	s := NewSPECU(e, Serial)
	if err := s.PowerOn(prng.NewKey(0xBA7C4, 0x5EED)); err != nil {
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
		data := make([]byte, BlockSize)
		for j := range data {
			data[j] = byte(i + j)
		}
		ops[i] = WriteOp{Addr: addrs[i], Data: data}
	}
	for i, err := range s.WriteBatch(context.Background(), ops) {
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i, r := range s.ReadBatch(context.Background(), addrs) {
		if r.Err != nil {
			t.Fatalf("read %d: %v", i, r.Err)
		}
		if !bytes.Equal(r.Data, ops[i].Data) {
			t.Fatalf("read %d: payload mismatch", i)
		}
	}
	// Serial mode left everything plaintext; EncryptBatch(nil) flushes all.
	if got := s.PlaintextBlocks(); got != n {
		t.Fatalf("plaintext blocks = %d, want %d", got, n)
	}
	for i, err := range s.EncryptBatch(context.Background(), nil) {
		if err != nil {
			t.Fatalf("encrypt %d: %v", i, err)
		}
	}
	if got := s.PlaintextBlocks(); got != 0 {
		t.Fatalf("plaintext blocks after EncryptBatch = %d", got)
	}
	// DecryptBatch is the bulk read-ahead: blocks become plaintext-resident.
	if errs := s.DecryptBatch(context.Background(), addrs[:4]); errors.Join(errs...) != nil {
		t.Fatalf("DecryptBatch: %v", errors.Join(errs...))
	}
	if got := s.PlaintextBlocks(); got != 4 {
		t.Fatalf("plaintext blocks after DecryptBatch = %d, want 4", got)
	}
	// Unknown address reports ErrNoBlock in its slot only.
	errs := s.EncryptBatch(context.Background(), []uint64{addrs[0], 0x999940})
	if errs[0] != nil {
		t.Errorf("EncryptBatch known addr: %v", errs[0])
	}
	if !errors.Is(errs[1], ErrNoBlock) {
		t.Errorf("EncryptBatch unknown addr: got %v, want ErrNoBlock", errs[1])
	}
}

// TestSPECUTelemetryBarrierSpans runs Steal and EncryptPending concurrently
// with PowerOff on an instrumented SPECU and checks the recorded barrier
// spans. The invariants: every span closes with a non-negative duration, the
// power_off span reports success, each written block is flushed exactly once
// (the A0 flush counts across all successful barriers sum to the block
// count), and the steals counter matches the calls issued.
func TestSPECUTelemetryBarrierSpans(t *testing.T) {
	e := engineForTest(t)
	s := NewSPECU(e, Serial) // Serial: reads leave plaintext for the barriers to flush
	reg := telemetry.New()
	s.EnableTelemetry(reg)
	key := prng.NewKey(0x5EC0, 0xDA7A)
	if err := s.PowerOn(key); err != nil {
		t.Fatal(err)
	}
	const numAddrs = 8
	for a := 0; a < numAddrs; a++ {
		if err := s.Write(uint64(a)*BlockSize, make([]byte, BlockSize)); err != nil {
			t.Fatal(err)
		}
		// Serial-mode reads decrypt in place and stay plaintext.
		if _, err := s.Read(uint64(a) * BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.PlaintextBlocks(); got != numAddrs {
		t.Fatalf("setup: plaintext blocks = %d, want %d", got, numAddrs)
	}

	const (
		stealers   = 4
		stealsEach = 16
		flushers   = 3
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < stealers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for op := 0; op < stealsEach; op++ {
				addr := uint64((g+op)%numAddrs) * BlockSize
				if _, err := s.Steal(addr); err != nil {
					t.Errorf("steal %#x: %v", addr, err)
				}
			}
		}(g)
	}
	for g := 0; g < flushers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for op := 0; op < 4; op++ {
				// ErrNoKey is expected once PowerOff wins the race.
				if err := s.EncryptPending(); err != nil && !errors.Is(err, ErrNoKey) {
					t.Errorf("EncryptPending: %v", err)
				}
			}
		}()
	}
	close(start)
	if err := s.PowerOff(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if s.HasKey() || s.PlaintextBlocks() != 0 {
		t.Fatalf("after PowerOff: hasKey=%v plaintext=%d", s.HasKey(), s.PlaintextBlocks())
	}

	snap := reg.Snapshot()
	if got := snap.Counters["specu.steals"]; got != stealers*stealsEach {
		t.Errorf("specu.steals = %d, want %d", got, stealers*stealsEach)
	}
	if got := snap.Gauges["specu.plaintext_blocks"]; got != 0 {
		t.Errorf("specu.plaintext_blocks gauge = %d, want 0", got)
	}
	if got := snap.Gauges["specu.blocks"]; got != numAddrs {
		t.Errorf("specu.blocks gauge = %d, want %d", got, numAddrs)
	}

	events := reg.Recorder().Events(reg.Recorder().Cap())
	var powerOns, powerOffs, pendings int
	var flushedTotal int64
	for _, ev := range events {
		if ev.Subsystem != "specu" {
			continue
		}
		if ev.DurNs < 0 {
			t.Errorf("span %s recorded as instant event (dur %d)", ev.Name, ev.DurNs)
		}
		switch ev.Name {
		case "power_on":
			powerOns++
		case "power_off":
			powerOffs++
			if ev.A1 != 0 {
				t.Errorf("power_off span reports failure (A1=%d)", ev.A1)
			}
			flushedTotal += ev.A0
		case "encrypt_pending":
			pendings++
			if ev.A1 == 0 {
				flushedTotal += ev.A0
			} else if ev.A0 != 0 {
				t.Errorf("failed encrypt_pending span claims %d flushes", ev.A0)
			}
		}
	}
	if powerOns != 1 {
		t.Errorf("power_on spans = %d, want 1", powerOns)
	}
	if powerOffs != 1 {
		t.Errorf("power_off spans = %d, want 1", powerOffs)
	}
	if pendings != flushers*4 {
		t.Errorf("encrypt_pending spans = %d, want %d", pendings, flushers*4)
	}
	// Every block is encrypted exactly once, under its shard lock, by
	// whichever barrier reaches it first — the flush counts must partition
	// the block set.
	if flushedTotal != numAddrs {
		t.Errorf("flush counts across barriers sum to %d, want %d", flushedTotal, numAddrs)
	}
}
