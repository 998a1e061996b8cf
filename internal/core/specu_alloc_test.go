package core

import (
	"bytes"
	"context"
	"testing"

	"snvmm/internal/prng"
	"snvmm/internal/telemetry/trace"
)

// TestShardedReadAllocRegression pins the allocation budget of a served
// Parallel-mode read — the hot path of the sharded pipeline. With the
// per-block schedule scratch, the allocation-free schedule derivation, the
// shard's read-through snapshot and crossbars sensed straight into the
// result buffer, a read allocates only its returned plaintext: 1 alloc.
// The ceiling of 3 leaves 2 for scheduling jitter but fails if a
// per-crossbar read-out buffer (4 per read) or any per-call crypt
// allocation (a derived schedule alone costs 2 per crossbar crypt) returns.
func TestShardedReadAllocRegression(t *testing.T) {
	s, addrs := benchSPECU(t, 16)
	if err := s.Serve(context.Background(), 2, 64); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Warm every block so steady-state reads never fabricate or grow maps.
	for _, a := range addrs {
		if _, err := s.Read(a); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		if _, err := s.Read(addrs[i%len(addrs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	const ceiling = 3
	if avg > ceiling {
		t.Errorf("sharded read allocates %.1f/op, ceiling %d", avg, ceiling)
	}
}

// TestBlockCryptAllocFree pins the crypt kernel at zero allocations on a
// warm block: schedules derive into the block's per-crossbar scratch and
// the pulse path reuses the crossbar's tracker buffers.
func TestBlockCryptAllocFree(t *testing.T) {
	e := engineForTest(t)
	blk, err := e.NewBlock(7)
	if err != nil {
		t.Fatal(err)
	}
	pt := make([]byte, BlockSize)
	for i := range pt {
		pt[i] = byte(i * 13)
	}
	if err := blk.WritePlain(pt); err != nil {
		t.Fatal(err)
	}
	key := prng.NewKey(0xA110C, 0xF4EE)
	roundTrip := func() {
		if err := blk.crypt(key, 0x40, false, trace.Context{}); err != nil {
			t.Fatal(err)
		}
		if err := blk.crypt(key, 0x40, true, trace.Context{}); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip() // warm: schedules, tracker, journal
	if avg := testing.AllocsPerRun(50, roundTrip); avg != 0 {
		t.Errorf("warm Encrypt+Decrypt allocates %.1f/op, want 0", avg)
	}
	got, err := blk.ReadPlain()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Error("round trips did not restore the plaintext")
	}
}
