package redteam

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"snvmm/internal/core"
)

// TestConcurrentBatchesUnderPowerCycles crash-injects a served SPECU while
// ReadBatch/EncryptBatch traffic is in flight (run under -race in CI). The
// contract: every batch element either succeeds or fails with a typed error
// (ErrPoweredOff — never a torn result), reads that succeed return exactly
// the written payload, and after the final recovery no plaintext is lost
// and no block is corrupted.
func TestConcurrentBatchesUnderPowerCycles(t *testing.T) {
	eng := testEngine(t)
	s := core.NewSPECU(eng, core.Serial)
	key := keyFromSeed(99)
	if err := s.PowerOn(key); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := s.Serve(ctx, 4, 16); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const blocks = 8
	addrs := make([]uint64, blocks)
	want := make(map[uint64][]byte, blocks)
	writes := make([]core.WriteOp, 0, blocks)
	for i := range addrs {
		addrs[i] = uint64(i) * core.BlockSize
		want[addrs[i]] = blockPayload(99, addrs[i])
		writes = append(writes, core.WriteOp{Addr: addrs[i], Data: want[addrs[i]]})
	}
	for _, err := range s.WriteBatch(ctx, writes) {
		if err != nil {
			t.Fatal(err)
		}
	}

	// allowed reports whether an in-flight batch error is one of the typed
	// outcomes a power cycle may legally produce.
	allowed := func(err error) bool {
		return err == nil || errors.Is(err, core.ErrPoweredOff)
	}

	var stop atomic.Bool
	var fail atomic.Pointer[string]
	record := func(msg string) { fail.CompareAndSwap(nil, &msg) }
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for _, r := range s.ReadBatch(ctx, addrs) {
					if !allowed(r.Err) {
						record("read: untyped error: " + r.Err.Error())
						return
					}
					if r.Err == nil && !bytes.Equal(r.Data, want[r.Addr]) {
						record("read: torn block payload")
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			for _, err := range s.EncryptBatch(ctx, nil) {
				if !allowed(err) {
					record("encrypt: untyped error: " + err.Error())
					return
				}
			}
		}
	}()

	// The crash injector: repeated power cycles while the batches run. The
	// keyMu barrier makes each PowerOff a clean drain, so it must never
	// fail — and PowerOn with the same key must always be accepted.
	for cycle := 0; cycle < 6; cycle++ {
		if err := s.PowerOff(); err != nil {
			t.Errorf("cycle %d: PowerOff: %v", cycle, err)
			break
		}
		if err := s.PowerOn(key); err != nil {
			t.Errorf("cycle %d: PowerOn: %v", cycle, err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(*msg)
	}

	// Recovery: every block must decrypt to its original payload, and a
	// final clean shutdown must leave nothing plaintext.
	for _, r := range s.ReadBatch(ctx, addrs) {
		if r.Err != nil {
			t.Fatalf("post-recovery read %#x: %v", r.Addr, r.Err)
		}
		if !bytes.Equal(r.Data, want[r.Addr]) {
			t.Fatalf("post-recovery read %#x: payload lost", r.Addr)
		}
	}
	if err := s.PowerOff(); err != nil {
		t.Fatal(err)
	}
	if n := s.PlaintextBlocks(); n != 0 {
		t.Fatalf("%d plaintext blocks after final PowerOff", n)
	}
}
