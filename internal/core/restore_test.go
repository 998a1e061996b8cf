package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"snvmm/internal/prng"
	"snvmm/internal/telemetry"
	"snvmm/internal/telemetry/trace"
)

// TestFlushRestoresReadCiphertext drives a Serial SPECU and its memo-free
// twin (whose explicit-key crypts always pulse) through reads, writes,
// flushes, batches, an explicit-key crypt and power cycles on the 8x8 and
// 16x16 engines. After every step the blocks' stored bits and per-cell
// wear must match the twin's (checkTwin), and specu.encrypt_restored must
// count exactly the encrypts of blocks left unchanged since a SPECU
// decrypt in the same key epoch. A block read and then flushed must hold
// the ciphertext it held before the read, and one encrypted under another
// epoch's schedules must be pulsed.
func TestFlushRestoresReadCiphertext(t *testing.T) {
	keys := []prng.Key{prng.NewKey(0x5EED, 0xF00D), prng.NewKey(0xB0B, 0xCAFE)}
	for _, e := range equivEngines(t) {
		t.Run(fmt.Sprintf("%dx%d", e.P.Xbar.Rows, e.P.Xbar.Cols), func(t *testing.T) {
			s := NewSPECU(e, Serial)
			reg := telemetry.New()
			s.EnableTelemetry(reg)
			m := newMemoFreeTwin(e, Serial)
			expect := func(step string, restored int64) {
				t.Helper()
				checkTwin(t, s, m, step)
				if got := reg.Counter("specu.encrypt_restored").Load(); got != restored {
					t.Fatalf("%s: %d encrypts restored, want %d", step, got, restored)
				}
			}
			must := func(step string, got, want error) {
				t.Helper()
				if got != nil || want != nil {
					t.Fatalf("%s: SPECU %v, twin %v", step, got, want)
				}
			}
			read := func(step string, a uint64) {
				t.Helper()
				got, gerr := s.Read(a)
				want, werr := m.read(a)
				must(step, gerr, werr)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: Read(%#x) = %x, twin %x", step, a, got, want)
				}
			}
			steal := func(a uint64) []byte {
				t.Helper()
				raw, err := s.Steal(a)
				if err != nil {
					t.Fatal(err)
				}
				return raw
			}

			must("power on", s.PowerOn(keys[0]), m.powerOn(keys[0]))
			for a := uint64(0); a < 4; a++ {
				must("fill", s.Write(a*BlockSize, batchPayload(int(a))), m.write(a*BlockSize, batchPayload(int(a))))
			}
			expect("fill", 0)

			ct0 := steal(0)
			read("read", 0)
			expect("read", 0)
			must("flush", s.EncryptPending(), m.encryptPending())
			expect("read -> flush", 1)
			if !bytes.Equal(steal(0), ct0) {
				t.Fatal("read -> flush did not leave the ciphertext the read decrypted")
			}

			read("read", BlockSize)
			must("write", s.Write(BlockSize, batchPayload(9)), m.write(BlockSize, batchPayload(9)))
			must("flush", s.EncryptPending(), m.encryptPending())
			expect("read -> write -> flush", 1)

			// An explicit-key round trip on a read-decrypted block leaves
			// no saved ciphertext to restore.
			read("read", 2*BlockSize)
			sb, tb := specuBlock(s, 2*BlockSize), m.blocks[2*BlockSize]
			for _, b := range []*Block{sb, tb} {
				must("explicit encrypt", b.Encrypt(keys[0], 2*BlockSize), nil)
				must("explicit decrypt", b.Decrypt(keys[0], 2*BlockSize), nil)
			}
			must("flush", s.EncryptPending(), m.encryptPending())
			expect("read -> explicit-key round trip -> flush", 1)

			addrs := []uint64{0, BlockSize, 2 * BlockSize, 3 * BlockSize}
			for _, err := range s.DecryptBatch(context.Background(), addrs) {
				must("decrypt batch", err, nil)
			}
			for _, a := range addrs {
				must("twin decrypt", m.blocks[a].Decrypt(keys[0], a), nil)
			}
			expect("DecryptBatch", 1)
			for _, err := range s.EncryptBatch(context.Background(), nil) {
				must("encrypt batch", err, nil)
			}
			must("twin encrypt", m.encryptPending(), nil)
			expect("DecryptBatch -> EncryptBatch", 5)

			read("read", 3*BlockSize)
			must("power off", s.PowerOff(), m.powerOff())
			expect("read -> power-off flush", 6)
			must("power on", s.PowerOn(keys[0]), m.powerOn(keys[0]))
			read("read after a power cycle", 3*BlockSize)
			must("power off", s.PowerOff(), m.powerOff())
			expect("power cycle -> read -> power-off flush", 7)
			must("power on", s.PowerOn(keys[1]), m.powerOn(keys[1]))
			read("read under a new key", 3*BlockSize)
			if sb := specuBlock(s, 3*BlockSize); !sb.restorable() {
				t.Fatal("a block read under a new key cannot restore its ciphertext")
			}
			must("flush", s.EncryptPending(), m.encryptPending())
			expect("new key -> read -> flush", 8)

			// An encrypt under schedules of another epoch must pulse: the
			// saved ciphertext belongs to the epoch that decrypted it.
			read("read", 0)
			b, sh := specuBlock(s, 0), s.shardOf(0)
			sh.mu.Lock()
			err := s.blockCrypt(shardIndex(0), b, loadedKey{keys[0], s.epoch + 1}, 0, false, trace.Context{})
			sh.mu.Unlock()
			must("encrypt under another epoch", err, m.blocks[0].Encrypt(keys[0], 0))
			expect("read -> encrypt under another epoch", 8)
		})
	}
}

// TestParallelReadsSaveNoCiphertext checks that Parallel reads, which are
// read-throughs, never allocate a block's saved ciphertext: only an
// in-place decrypt does.
func TestParallelReadsSaveNoCiphertext(t *testing.T) {
	s := NewSPECU(engineForTest(t), Parallel)
	if err := s.PowerOn(prng.NewKey(0xA, 0xB)); err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 4; a++ {
		if err := s.Write(a*BlockSize, batchPayload(int(a))); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 3; r++ {
			if _, err := s.Read(a * BlockSize); err != nil {
				t.Fatal(err)
			}
		}
		if b := specuBlock(s, a*BlockSize); b.ct != nil || b.ctEpoch != 0 {
			t.Fatalf("block %#x: Parallel reads saved %d ciphertext words (tag %d)", a*BlockSize, len(b.ct), b.ctEpoch)
		}
	}
}

// TestWarmFlushAllocFree pins a Serial flush of read-decrypted blocks at
// zero allocations once each block has saved its ciphertext: the restore
// reuses the block's buffer and the crossbars' state.
func TestWarmFlushAllocFree(t *testing.T) {
	s := NewSPECU(engineForTest(t), Serial)
	if err := s.PowerOn(prng.NewKey(0xC, 0xD)); err != nil {
		t.Fatal(err)
	}
	const n = 16
	readAll := func() {
		for a := uint64(0); a < n; a++ {
			if _, err := s.Read(a * BlockSize); err != nil {
				t.Fatal(err)
			}
		}
	}
	for a := uint64(0); a < n; a++ {
		if err := s.Write(a*BlockSize, batchPayload(int(a))); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for round := 0; round < 3; round++ {
		readAll()
		runtime.ReadMemStats(&before)
		err := s.EncryptPending()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if s.PlaintextBlocks() != 0 {
			t.Fatal("flush left plaintext")
		}
		if allocs := after.Mallocs - before.Mallocs; round > 0 && allocs != 0 {
			t.Errorf("round %d: warm flush of %d blocks allocates %d times, want 0", round, n, allocs)
		}
	}
}
