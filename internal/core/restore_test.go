package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"snvmm/internal/prng"
	"snvmm/internal/telemetry"
	"snvmm/internal/telemetry/trace"
	"snvmm/internal/xbar"
)

// TestFlushRestoresReadCiphertext drives a Serial SPECU and its memo-free
// twin (whose crypts always pulse, pulseCrypt) through reads, writes,
// flushes, batches, an explicit-key crypt and power cycles on the 8x8 and
// 16x16 engines. After every step the blocks' stored bits and per-cell
// wear must match the twin's (checkTwin), and specu.encrypt_restored must
// count exactly the SPECU encrypts of blocks left unchanged since a
// decrypt under the same schedules. A block read and then flushed must
// hold the ciphertext it held before the read, and one encrypted under
// another key's schedules must be pulsed.
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

			// An explicit-key round trip under the SPECU's key and the
			// block's address runs the block's own schedules: its encrypt
			// restores, its decrypt leaves the record the flush restores
			// from.
			read("read", 2*BlockSize)
			sb, tb := specuBlock(s, 2*BlockSize), m.blocks[2*BlockSize]
			must("explicit encrypt", sb.Encrypt(keys[0], 2*BlockSize), pulseCrypt(tb, keys[0], 2*BlockSize, false))
			must("explicit decrypt", sb.Decrypt(keys[0], 2*BlockSize), pulseCrypt(tb, keys[0], 2*BlockSize, true))
			must("flush", s.EncryptPending(), m.encryptPending())
			expect("read -> explicit-key round trip -> flush", 2)

			addrs := []uint64{0, BlockSize, 2 * BlockSize, 3 * BlockSize}
			for _, err := range s.DecryptBatch(context.Background(), addrs) {
				must("decrypt batch", err, nil)
			}
			for _, a := range addrs {
				must("twin decrypt", pulseCrypt(m.blocks[a], keys[0], a, true), nil)
			}
			expect("DecryptBatch", 2)
			for _, err := range s.EncryptBatch(context.Background(), nil) {
				must("encrypt batch", err, nil)
			}
			must("twin encrypt", m.encryptPending(), nil)
			expect("DecryptBatch -> EncryptBatch", 6)

			read("read", 3*BlockSize)
			must("power off", s.PowerOff(), m.powerOff())
			expect("read -> power-off flush", 7)
			must("power on", s.PowerOn(keys[0]), m.powerOn(keys[0]))
			read("read after a power cycle", 3*BlockSize)
			must("power off", s.PowerOff(), m.powerOff())
			expect("power cycle -> read -> power-off flush", 8)
			must("power on", s.PowerOn(keys[1]), m.powerOn(keys[1]))
			ct3 := steal(3 * BlockSize)
			read("read under a new key", 3*BlockSize)
			must("flush", s.EncryptPending(), m.encryptPending())
			if !bytes.Equal(steal(3*BlockSize), ct3) {
				t.Fatal("a block read under a new key did not restore its ciphertext")
			}
			expect("new key -> read -> flush", 9)

			// An encrypt under another key's schedules must pulse: the
			// saved ciphertext belongs to the schedules that decrypted it.
			read("read", 0)
			b, sh := specuBlock(s, 0), s.shardOf(0)
			sh.mu.Lock()
			err := s.blockCrypt(shardIndex(0), b, loadedKey{keys[0], s.epoch + 1}, 0, false, trace.Context{})
			sh.mu.Unlock()
			must("encrypt under another key", err, pulseCrypt(m.blocks[0], keys[0], 0, false))
			expect("read -> encrypt under another key", 9)
		})
	}
}

// TestNoPlaintextOutsideArray checks that once a block holds ciphertext,
// no host-side buffer reachable from it holds any of its plaintext: not
// the crossbars' train records (schedule, permutation indices, saved
// ciphertext), their scratch, their wear tables, nor the block's
// schedules; the walk must reach every crossbar's wear table. It runs at
// 8x8 and 16x16 after Write -> PowerOff, after Parallel reads
// (read-throughs) and after Serial reads (in-place decrypts) followed by
// a flush. Each
// crossbar's plaintext is searched for in every reachable numeric buffer
// (heldBuffers) both as the data bytes it stores and as its packed level
// words.
func TestNoPlaintextOutsideArray(t *testing.T) {
	keys := []prng.Key{prng.NewKey(0x51, 0x7E), prng.NewKey(0xFACE, 0xB00C)}
	for _, e := range equivEngines(t) {
		t.Run(fmt.Sprintf("%dx%d", e.P.Xbar.Rows, e.P.Xbar.Cols), func(t *testing.T) {
			for _, mode := range []Mode{Serial, Parallel} {
				s := NewSPECU(e, mode)
				plain := make(map[uint64][]byte)
				check := func(step string) {
					t.Helper()
					for addr, data := range plain {
						b := specuBlock(s, addr)
						if !b.Encrypted() {
							t.Fatalf("%v %s: block %#x holds plaintext", mode, step, addr)
						}
						if err := plaintextHeld(b, data); err != nil {
							t.Fatalf("%v %s: block %#x: %v", mode, step, addr, err)
						}
					}
				}
				if err := s.PowerOn(keys[0]); err != nil {
					t.Fatal(err)
				}
				for a := uint64(0); a < 4; a++ {
					plain[a*BlockSize] = batchPayload(int(a) + 20)
					if err := s.Write(a*BlockSize, plain[a*BlockSize]); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.PowerOff(); err != nil {
					t.Fatal(err)
				}
				check("write -> power off")
				if err := s.PowerOn(keys[0]); err != nil {
					t.Fatal(err)
				}
				for r := 0; r < 3; r++ {
					for a := range plain {
						got, err := s.Read(a)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, plain[a]) {
							t.Fatalf("%v: Read(%#x) = %x, want %x", mode, a, got, plain[a])
						}
					}
					if err := s.EncryptPending(); err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("reads round %d -> flush", r))
				}
				if err := s.PowerOff(); err != nil {
					t.Fatal(err)
				}
				if err := s.PowerOn(keys[1]); err != nil {
					t.Fatal(err)
				}
				for a := range plain {
					if _, err := s.Read(a); err != nil {
						t.Fatal(err)
					}
				}
				if err := s.PowerOff(); err != nil {
					t.Fatal(err)
				}
				check("reads under another key -> power off")
			}
		})
	}
}

// plaintextHeld reports an error if any numeric buffer reachable from b
// (heldBuffers) contains, for some crossbar of b, that crossbar's share of
// data: as the bytes it stores or as its packed level words (a stored byte
// is the bitwise NOT of the matching packed byte).
func plaintextHeld(b *Block, data []byte) error {
	bufs := heldBuffers(reflect.ValueOf(b), map[uintptr]bool{}, nil)
	for i, xb := range b.xbs {
		tab := reflect.ValueOf(xb).Elem().FieldByName("pulses").FieldByName("tab")
		if tab.Len() == 0 {
			return fmt.Errorf("crossbar %d of an encrypted block has no wear table", i)
		}
		want := heldBuffers(tab, map[uintptr]bool{}, nil)[0]
		if !slices.ContainsFunc(bufs, func(buf []byte) bool { return bytes.Equal(buf, want) }) {
			return fmt.Errorf("the walk does not reach crossbar %d's wear table", i)
		}
	}
	per := b.bytesPerXbar()
	for i := range b.xbs {
		share := data[i*per : (i+1)*per]
		packed := make([]byte, len(share))
		for k, v := range share {
			packed[k] = ^v
		}
		for _, buf := range bufs {
			if bytes.Contains(buf, share) || bytes.Contains(buf, packed) {
				return fmt.Errorf("a %d-byte host buffer holds crossbar %d's plaintext", len(buf), i)
			}
		}
	}
	return nil
}

// heldBuffers appends to out the little-endian bytes of every slice or
// array of integers reachable from v, through pointers, structs, slices,
// arrays, maps and interfaces, one buffer per slice. It skips the engine
// and the calibrations, which every block shares and which hold only
// fabrication data, and it reads unexported fields too.
func heldBuffers(v reflect.Value, seen map[uintptr]bool, out [][]byte) [][]byte {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || v.Type() == reflect.TypeOf((*Engine)(nil)) || v.Type() == reflect.TypeOf((*xbar.Calibration)(nil)) || seen[v.Pointer()] {
			return out
		}
		seen[v.Pointer()] = true
		return heldBuffers(v.Elem(), seen, out)
	case reflect.Interface:
		if !v.IsNil() {
			out = heldBuffers(v.Elem(), seen, out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = heldBuffers(v.Field(i), seen, out)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			out = heldBuffers(it.Key(), seen, out)
			out = heldBuffers(it.Value(), seen, out)
		}
	case reflect.Slice, reflect.Array:
		switch ek := v.Type().Elem().Kind(); {
		case ek >= reflect.Int && ek <= reflect.Uint64:
			size := int(v.Type().Elem().Size())
			buf := make([]byte, 0, v.Len()*size)
			for k := 0; k < v.Len(); k++ {
				var w uint64
				if ek <= reflect.Int64 {
					w = uint64(v.Index(k).Int())
				} else {
					w = v.Index(k).Uint()
				}
				buf = binary.LittleEndian.AppendUint64(buf, w)[:len(buf)+size]
			}
			out = append(out, buf)
		default:
			for k := 0; k < v.Len(); k++ {
				out = heldBuffers(v.Index(k), seen, out)
			}
		}
	}
	return out
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
