package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"snvmm/internal/prng"
	"snvmm/internal/telemetry"
	"snvmm/internal/xbar"
)

// memoFreeTwin is the SPECU's reference model without the schedule memo
// and without train records: the same operations on the same blocks, each
// crypt through pulseCrypt, which derives every schedule afresh and sums
// every pulse's deviations from scratch.
type memoFreeTwin struct {
	eng    *Engine
	mode   Mode
	key    prng.Key
	hasKey bool
	blocks map[uint64]*Block
}

// pulseCrypt is the memo-free crypt: it derives b's schedules from key
// afresh and applies every pulse through xbar.Crossbar.ApplyPulse, which
// sums its deviations from the levels it finds, so nothing a train
// recorded is reused or restored.
func pulseCrypt(b *Block, key prng.Key, tweak uint64, decrypt bool) error {
	if b.encrypted != decrypt {
		return fmt.Errorf("core: pulseCrypt(decrypt %v) of a block with encrypted %v", decrypt, b.encrypted)
	}
	b.loadScheds(key, tweak, 0)
	for i, xb := range b.xbs {
		s := &b.scheds[i]
		n := len(s.Order)
		for k := 0; k < n; k++ {
			step, class := k, s.Classes[k]
			if decrypt {
				step = n - 1 - k
				class = xbar.InverseClass(s.Classes[step])
			}
			if err := xb.ApplyPulse(b.cals[i], b.eng.Placement[s.Order[step]], class); err != nil {
				return err
			}
		}
	}
	b.encrypted = !decrypt
	return nil
}

func newMemoFreeTwin(eng *Engine, mode Mode) *memoFreeTwin {
	return &memoFreeTwin{eng: eng, mode: mode, blocks: make(map[uint64]*Block)}
}

func (m *memoFreeTwin) powerOn(k prng.Key) error {
	if m.hasKey {
		if m.key == k {
			return nil
		}
		return ErrKeyLoaded
	}
	m.key, m.hasKey = k, true
	return nil
}

func (m *memoFreeTwin) powerOff() error {
	if !m.hasKey {
		return nil
	}
	if err := m.encryptPending(); err != nil {
		return err
	}
	m.key, m.hasKey = prng.Key{}, false
	return nil
}

func (m *memoFreeTwin) encryptPending() error {
	if !m.hasKey {
		return ErrNoKey
	}
	for addr, b := range m.blocks {
		if !b.Encrypted() {
			if err := pulseCrypt(b, m.key, addr, false); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *memoFreeTwin) write(addr uint64, data []byte) error {
	if !m.hasKey {
		return ErrNoKey
	}
	b, ok := m.blocks[addr]
	if !ok {
		var err error
		if b, err = m.eng.NewBlock(int64(addr)); err != nil {
			return err
		}
		m.blocks[addr] = b
	}
	if err := b.program(data); err != nil {
		return err
	}
	return pulseCrypt(b, m.key, addr, false)
}

func (m *memoFreeTwin) read(addr uint64) ([]byte, error) {
	if !m.hasKey {
		return nil, ErrNoKey
	}
	b, ok := m.blocks[addr]
	if !ok {
		return nil, errNoBlockAt(addr)
	}
	if b.Encrypted() {
		if err := pulseCrypt(b, m.key, addr, true); err != nil {
			return nil, err
		}
	}
	data, err := b.ReadPlain()
	if err != nil {
		return nil, err
	}
	if m.mode == Parallel {
		if err := pulseCrypt(b, m.key, addr, false); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// errKind names the SPECU error class of err, so the SPECU and the twin
// can be compared without their wrapping text.
func errKind(err error) string {
	for _, k := range []error{ErrNoKey, ErrKeyLoaded, ErrNoBlock} {
		if errors.Is(err, k) {
			return k.Error()
		}
	}
	if err != nil {
		return "other: " + err.Error()
	}
	return "nil"
}

// specuBlock returns the SPECU's resident block at addr, or nil.
func specuBlock(s *SPECU, addr uint64) *Block {
	sh := s.shardOf(addr)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.blocks[addr]
}

// checkTwin compares every block of the twin with the SPECU's: ciphertext
// (or plaintext) as Steal sees it, encryption state and per-cell wear.
func checkTwin(t *testing.T, s *SPECU, m *memoFreeTwin, step string) {
	t.Helper()
	if got, want := s.Blocks(), len(m.blocks); got != want {
		t.Fatalf("%s: SPECU holds %d blocks, twin %d", step, got, want)
	}
	for addr, ref := range m.blocks {
		raw, err := s.Steal(addr)
		if err != nil {
			t.Fatalf("%s: Steal(%#x): %v", step, addr, err)
		}
		b := specuBlock(s, addr)
		if !bytes.Equal(raw, ref.ReadRaw()) || b.Encrypted() != ref.Encrypted() {
			t.Fatalf("%s: block %#x differs from the memo-free twin (encrypted %v/%v)",
				step, addr, b.Encrypted(), ref.Encrypted())
		}
		if !slices.Equal(blockWear(b), blockWear(ref)) {
			t.Fatalf("%s: block %#x per-cell wear differs from the memo-free twin", step, addr)
		}
	}
}

// TestSchedMemoMatchesMemoFreeTwin runs a seeded random history of
// writes, reads, coalesced batches, flushes and power cycles on a SPECU in
// each mode and on its memo-free twin, and checks the returned data, the
// errors, and every block's stored bits and per-cell wear bit for bit
// after each step. The history opens with PowerOff -> PowerOn(new key) ->
// Read -> PowerOff -> PowerOn(old key) -> Read, so a schedule kept from an
// earlier epoch, whichever key derived it, would show as a divergence.
func TestSchedMemoMatchesMemoFreeTwin(t *testing.T) {
	withProcs(t, 4)
	e := engineForTest(t)
	const nAddrs = 24
	keys := []prng.Key{prng.NewKey(0x5EED, 0xF00D), prng.NewKey(0xB0B, 0xCAFE)}
	for _, mode := range []Mode{Serial, Parallel} {
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(40 + mode)))
			s := NewSPECU(e, mode)
			reg := telemetry.New()
			s.EnableTelemetry(reg)
			if err := s.Serve(context.Background(), 4, 0); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			m := newMemoFreeTwin(e, mode)
			addr := func() uint64 { return uint64(rng.Intn(nAddrs)) * BlockSize }
			payload := func() []byte {
				d := make([]byte, BlockSize)
				rng.Read(d)
				return d
			}
			same := func(step string, got, want error) {
				t.Helper()
				if errKind(got) != errKind(want) {
					t.Fatalf("%s: SPECU error %v, twin %v", step, got, want)
				}
			}
			read := func(step string, a uint64) {
				t.Helper()
				got, gerr := s.Read(a)
				want, werr := m.read(a)
				same(step, gerr, werr)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: Read(%#x) = %x, twin %x", step, a, got, want)
				}
			}
			powerOn := func(step string, k prng.Key) {
				t.Helper()
				same(step, s.PowerOn(k), m.powerOn(k))
			}
			powerOff := func(step string) {
				t.Helper()
				same(step, s.PowerOff(), m.powerOff())
			}

			powerOn("power on", keys[0])
			for a := uint64(0); a < nAddrs; a++ {
				d := payload()
				same("fill", s.Write(a*BlockSize, d), m.write(a*BlockSize, d))
			}
			read("read under old key", 3*BlockSize)
			powerOff("power off")
			powerOn("power on new key", keys[1])
			read("read under new key", 3*BlockSize)
			read("read under new key", 5*BlockSize)
			powerOff("power off")
			powerOn("power on old key", keys[0])
			read("read under old key again", 5*BlockSize)
			read("read under old key again", 7*BlockSize)
			checkTwin(t, s, m, "scripted prefix")

			for i := 0; i < 300; i++ {
				step := fmt.Sprintf("step %d", i)
				switch r := rng.Intn(100); {
				case r < 35:
					read(step+" read", addr())
				case r < 55:
					a, d := addr(), payload()
					same(step+" write", s.Write(a, d), m.write(a, d))
				case r < 70:
					addrs := make([]uint64, inlineBatchMax+1+rng.Intn(12))
					for j := range addrs {
						addrs[j] = addr()
					}
					if rng.Intn(4) == 0 {
						addrs[0] = nAddrs * BlockSize // never written
					}
					res := s.ReadBatch(context.Background(), addrs)
					for j, a := range addrs {
						want, werr := m.read(a)
						same(step+" read batch", res[j].Err, werr)
						if !bytes.Equal(res[j].Data, want) {
							t.Fatalf("%s read batch op %d: %x, twin %x", step, j, res[j].Data, want)
						}
					}
				case r < 82:
					ops := make([]WriteOp, inlineBatchMax+1+rng.Intn(12))
					for j := range ops {
						ops[j] = WriteOp{Addr: addr(), Data: payload()}
					}
					errs := s.WriteBatch(context.Background(), ops)
					for j, op := range ops {
						same(step+" write batch", errs[j], m.write(op.Addr, op.Data))
					}
				case r < 90:
					same(step+" encrypt pending", s.EncryptPending(), m.encryptPending())
				case r < 95:
					powerOff(step + " power off")
				default:
					powerOn(step+" power on", keys[rng.Intn(len(keys))])
				}
				checkTwin(t, s, m, step)
			}
			derived := reg.Counter("specu.sched_derived").Load()
			reused := reg.Counter("specu.sched_reused").Load()
			if derived == 0 || reused == 0 {
				t.Fatalf("history did not exercise both memo paths: %d derived, %d reused", derived, reused)
			}
		})
	}
}

// TestSchedMemoIgnoresExplicitKey crypts a SPECU-encrypted block through
// the explicit-key Block methods under another key, and checks the next
// SPECU read derives its schedules afresh rather than reusing either the
// SPECU's own (derived before the explicit crypts) or the explicit key's:
// the result must match a twin block driven through explicit-key calls
// only, and the read must count as derived.
func TestSchedMemoIgnoresExplicitKey(t *testing.T) {
	e := engineForTest(t)
	key, other := prng.NewKey(0x1234, 0x5678), prng.NewKey(0x9ABC, 0xDEF0)
	const addr = 7 * BlockSize
	for _, mode := range []Mode{Serial, Parallel} {
		s := NewSPECU(e, mode)
		reg := telemetry.New()
		s.EnableTelemetry(reg)
		if err := s.PowerOn(key); err != nil {
			t.Fatal(err)
		}
		plain := batchPayload(11)
		if err := s.Write(addr, plain); err != nil {
			t.Fatal(err)
		}
		ref, err := e.NewBlock(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.WritePlain(plain); err != nil {
			t.Fatal(err)
		}
		if err := ref.Encrypt(key, addr); err != nil {
			t.Fatal(err)
		}
		b := specuBlock(s, addr)
		for _, blk := range []*Block{b, ref} {
			if err := blk.Decrypt(other, addr); err != nil {
				t.Fatal(err)
			}
			if err := blk.Encrypt(other, addr); err != nil {
				t.Fatal(err)
			}
		}
		reused := reg.Counter("specu.sched_reused").Load()
		derived := reg.Counter("specu.sched_derived").Load()
		got, err := s.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.Decrypt(key, addr); err != nil {
			t.Fatal(err)
		}
		want, err := ref.ReadPlain()
		if err != nil {
			t.Fatal(err)
		}
		if mode == Parallel {
			if err := ref.Encrypt(key, addr); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := s.Steal(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || !bytes.Equal(raw, ref.ReadRaw()) || !slices.Equal(blockWear(b), blockWear(ref)) {
			t.Fatalf("%v: SPECU read after explicit-key crypts diverges from the explicit-key twin", mode)
		}
		if r, d := reg.Counter("specu.sched_reused").Load()-reused, reg.Counter("specu.sched_derived").Load()-derived; r != 0 || d != 1 {
			t.Fatalf("%v: read after explicit-key crypts reused %d and derived %d schedules, want 0 and 1", mode, r, d)
		}
	}
}

// TestExplicitKeyNeverReusesSchedules checks Encrypt(k1) -> Decrypt(k1) ->
// Encrypt(k2) leaves the ciphertext a fresh block's Encrypt(k2) does: the
// explicit-key path never keeps k1's schedules.
func TestExplicitKeyNeverReusesSchedules(t *testing.T) {
	for _, e := range equivEngines(t) {
		k1, k2 := prng.NewKey(0xAAA, 0xBBB), prng.NewKey(0xCCC, 0xDDD)
		plain := batchPayload(5)
		used, err := e.NewBlock(9)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := e.NewBlock(9)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []*Block{used, fresh} {
			if err := b.WritePlain(plain); err != nil {
				t.Fatal(err)
			}
		}
		for _, step := range []func() error{
			func() error { return used.Encrypt(k1, 0x80) },
			func() error { return used.Decrypt(k1, 0x80) },
			func() error { return used.Encrypt(k2, 0x80) },
			func() error { return fresh.Encrypt(k2, 0x80) },
		} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(used.ReadRaw(), fresh.ReadRaw()) {
			t.Errorf("%dx%d: Encrypt(k2) after a k1 round trip differs from a fresh block's", e.P.Xbar.Rows, e.P.Xbar.Cols)
		}
	}
}

// TestSchedMemoFollowsPlacement swaps a 17-PoE engine (its last PoE out of
// bounds) under a SPECU block between two Parallel reads in one key epoch.
// The failed read derives 17-PoE schedules; once the engine is back, the
// memo must see the PoE count changed and derive 16 again instead of
// indexing the placement with the 17-PoE order.
func TestSchedMemoFollowsPlacement(t *testing.T) {
	e := engineForTest(t)
	s := NewSPECU(e, Parallel)
	if err := s.PowerOn(prng.NewKey(0xBAD, 0x9E)); err != nil {
		t.Fatal(err)
	}
	const addr = 3 * BlockSize
	plain := batchPayload(9)
	if err := s.Write(addr, plain); err != nil {
		t.Fatal(err)
	}
	cipher, _ := s.Steal(addr)
	b := specuBlock(s, addr)
	b.eng = &Engine{P: e.P, Placement: append(slices.Clone(e.Placement), xbar.Cell{Row: e.P.Xbar.Rows, Col: 0})}
	if _, err := s.Read(addr); err == nil {
		t.Fatal("read with an out-of-bounds PoE succeeded")
	}
	b.eng = e
	if raw, _ := s.Steal(addr); !bytes.Equal(raw, cipher) {
		t.Fatal("failed read left the ciphertext changed")
	}
	data, err := s.Read(addr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, plain) {
		t.Errorf("read after the engine swap = %x, want %x", data, plain)
	}
}

// TestSchedCountersSerial pins the Serial hit pattern the memo exists for:
// after a power cycle the first read of a block derives its schedules, and
// the EncryptPending that re-encrypts it reuses them, as does a later read
// in the same epoch; a same-key PowerOn keeps the epoch.
func TestSchedCountersSerial(t *testing.T) {
	e := engineForTest(t)
	s := NewSPECU(e, Serial)
	reg := telemetry.New()
	s.EnableTelemetry(reg)
	key := prng.NewKey(0x77, 0x88)
	counts := func() [2]int64 {
		return [2]int64{reg.Counter("specu.sched_derived").Load(), reg.Counter("specu.sched_reused").Load()}
	}
	want := func(step string, derived, reused int64) {
		t.Helper()
		if got := counts(); got != [2]int64{derived, reused} {
			t.Fatalf("%s: derived/reused = %v, want [%d %d]", step, got, derived, reused)
		}
	}
	if err := s.PowerOn(key); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(0, batchPayload(1)); err != nil {
		t.Fatal(err)
	}
	want("write of a fresh block", 1, 0)
	if err := s.PowerOff(); err != nil {
		t.Fatal(err)
	}
	if err := s.PowerOn(key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(0); err != nil {
		t.Fatal(err)
	}
	want("first read in a new epoch", 2, 0)
	if err := s.EncryptPending(); err != nil {
		t.Fatal(err)
	}
	want("EncryptPending after the read", 2, 1)
	if err := s.PowerOn(key); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(0); err != nil {
		t.Fatal(err)
	}
	want("read after a same-key PowerOn", 2, 2)
}
