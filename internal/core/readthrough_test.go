package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"snvmm/internal/poe"
	"snvmm/internal/prng"
	"snvmm/internal/telemetry"
	"snvmm/internal/telemetry/trace"
	"snvmm/internal/xbar"
)

var (
	engine16     *Engine
	engine16Err  error
	engine16Once sync.Once
)

// equivEngines returns the paper's 8x8 engine and a 16x16 engine with the
// scaled lattice slack and a one-node placement search (one crossbar per
// block, sketch-path calibration).
func equivEngines(t *testing.T) []*Engine {
	t.Helper()
	engine16Once.Do(func() {
		spec, err := poe.ScaledSpec(16, 16)
		if err != nil {
			engine16Err = err
			return
		}
		engine16, engine16Err = NewEngine(Params{Xbar: spec.Cfg, SecuritySlack: spec.S, MaxNodes: 1})
	})
	if engine16Err != nil {
		t.Fatal(engine16Err)
	}
	return []*Engine{engineForTest(t), engine16}
}

// blockWear returns the per-cell wear of every crossbar of b, concatenated.
func blockWear(b *Block) []uint64 {
	var out []uint64
	for _, xb := range b.xbs {
		out = append(out, xb.Wear()...)
	}
	return out
}

// TestReadThroughMatchesPulsedReencrypt checks the Parallel read-through
// against the pulsed sequence it replaces: decrypt, read the plaintext,
// encrypt, every pulse summed afresh (pulseCrypt). Twin blocks hold the
// same ciphertext; each read must return the plaintext and leave both with
// bit-identical ciphertext and per-cell wear, read after read. A final
// real Decrypt of both must agree as well, which holds only if the
// restoring re-encrypt left the crossbars' train records consistent.
func TestReadThroughMatchesPulsedReencrypt(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, e := range equivEngines(t) {
		name := fmt.Sprintf("%dx%d", e.P.Xbar.Rows, e.P.Xbar.Cols)
		for n := 0; n < 12; n++ {
			seed := rng.Int63()
			key := prng.NewKey(rng.Uint64(), rng.Uint64())
			tweak := rng.Uint64()
			plain := make([]byte, BlockSize)
			rng.Read(plain)
			got, err := e.NewBlock(seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.NewBlock(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range []*Block{got, want} {
				if err := b.WritePlain(plain); err != nil {
					t.Fatal(err)
				}
			}
			if err := got.Encrypt(key, tweak); err != nil {
				t.Fatal(err)
			}
			if err := pulseCrypt(want, key, tweak, false); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < 3+n%3; r++ {
				data, err := got.readThrough(key, tweak, trace.Context{})
				if err != nil {
					t.Fatal(err)
				}
				if err := pulseCrypt(want, key, tweak, true); err != nil {
					t.Fatal(err)
				}
				ref, err := want.ReadPlain()
				if err != nil {
					t.Fatal(err)
				}
				if err := pulseCrypt(want, key, tweak, false); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(data, plain) || !bytes.Equal(ref, plain) {
					t.Fatalf("%s block %d read %d: read-through %x, pulsed %x, want %x", name, n, r, data, ref, plain)
				}
				if !got.Encrypted() {
					t.Fatalf("%s block %d read %d: read-through left the block plaintext", name, n, r)
				}
				if !bytes.Equal(got.ReadRaw(), want.ReadRaw()) {
					t.Fatalf("%s block %d read %d: ciphertext differs from the pulsed re-encryption", name, n, r)
				}
				if !slices.Equal(blockWear(got), blockWear(want)) {
					t.Fatalf("%s block %d read %d: per-cell wear differs from the pulsed re-encryption", name, n, r)
				}
			}
			if err := got.Decrypt(key, tweak); err != nil {
				t.Fatal(err)
			}
			if err := pulseCrypt(want, key, tweak, true); err != nil {
				t.Fatal(err)
			}
			gp, _ := got.ReadPlain()
			if !bytes.Equal(gp, plain) || !bytes.Equal(got.ReadRaw(), want.ReadRaw()) ||
				!slices.Equal(blockWear(got), blockWear(want)) {
				t.Fatalf("%s block %d: a real Decrypt after read-throughs disagrees with the pulsed twin", name, n)
			}
		}
	}
}

// TestReadThroughPulseErrorKeepsCiphertext fails a read-through part way
// through its pulse train (the engine it decrypts under gains an
// out-of-bounds PoE) and checks the block still holds its ciphertext and
// reads back correctly under the right engine.
func TestReadThroughPulseErrorKeepsCiphertext(t *testing.T) {
	e := engineForTest(t)
	b, err := e.NewBlock(3)
	if err != nil {
		t.Fatal(err)
	}
	key := prng.NewKey(0xBAD, 0x9E)
	plain := batchPayload(9)
	if err := b.WritePlain(plain); err != nil {
		t.Fatal(err)
	}
	if err := b.Encrypt(key, 0x40); err != nil {
		t.Fatal(err)
	}
	cipher := b.ReadRaw()
	bad := &Engine{P: e.P, Placement: append(slices.Clone(e.Placement), xbar.Cell{Row: e.P.Xbar.Rows, Col: 0})}
	b.eng = bad
	if _, err := b.readThrough(key, 0x40, trace.Context{}); err == nil {
		t.Fatal("read-through with an out-of-bounds PoE succeeded")
	}
	b.eng = e
	if !b.Encrypted() || !bytes.Equal(b.ReadRaw(), cipher) {
		t.Fatal("failed read-through did not leave the ciphertext in place")
	}
	data, err := b.readThrough(key, 0x40, trace.Context{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, plain) {
		t.Errorf("read after a failed read-through = %x, want %x", data, plain)
	}
}

// TestOverwriteSkipsDecrypt checks a SPECU overwrite of ciphertext against
// the decrypt-write-encrypt sequence it replaces: the new ciphertext is
// bit-identical, and every cell carries exactly one crypt's pulses less
// wear — the decrypt the write phase makes pointless.
func TestOverwriteSkipsDecrypt(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, e := range equivEngines(t) {
		s := NewSPECU(e, Parallel)
		key := prng.NewKey(rng.Uint64(), rng.Uint64())
		if err := s.PowerOn(key); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 6; n++ {
			addr := uint64(rng.Intn(1<<20)) * BlockSize
			oldData, newData := make([]byte, BlockSize), make([]byte, BlockSize)
			rng.Read(oldData)
			rng.Read(newData)
			ref, err := e.NewBlock(int64(addr))
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.WritePlain(oldData); err != nil {
				t.Fatal(err)
			}
			w0 := blockWear(ref)
			if err := ref.Encrypt(key, addr); err != nil {
				t.Fatal(err)
			}
			w1 := blockWear(ref)
			for _, step := range []func() error{
				func() error { return ref.Decrypt(key, addr) },
				func() error { return ref.WritePlain(newData) },
				func() error { return ref.Encrypt(key, addr) },
			} {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			for _, d := range [][]byte{oldData, newData} {
				if err := s.Write(addr, d); err != nil {
					t.Fatal(err)
				}
			}
			sh := s.shardOf(addr)
			b := sh.blocks[addr]
			if !b.Encrypted() || !bytes.Equal(b.ReadRaw(), ref.ReadRaw()) {
				t.Fatalf("%dx%d addr %#x: overwrite ciphertext differs from decrypt-write-encrypt", e.P.Xbar.Rows, e.P.Xbar.Cols, addr)
			}
			got, want := blockWear(b), blockWear(ref)
			for i := range got {
				if cover := w1[i] - w0[i]; got[i]+cover != want[i] {
					t.Fatalf("%dx%d addr %#x cell %d: wear %d, pulsed path %d, one crypt covers it %d times",
						e.P.Xbar.Rows, e.P.Xbar.Cols, addr, i, got[i], want[i], cover)
				}
			}
		}
	}
}

// TestTelemetryTracksReadThroughAndOverwrite drives a mix of reads,
// overwrites, DecryptBatch, Serial misses and EncryptPending in both modes
// and checks after each step that the specu.plaintext_blocks gauge equals
// PlaintextBlocks() and that the encrypt and decrypt histograms counted
// exactly the keyed pulse trains the step ran: a read-through is one
// decrypt, an overwrite one encrypt.
func TestTelemetryTracksReadThroughAndOverwrite(t *testing.T) {
	e := engineForTest(t)
	for _, mode := range []Mode{Parallel, Serial} {
		t.Run(mode.String(), func(t *testing.T) {
			s := NewSPECU(e, mode)
			reg := telemetry.New()
			s.EnableTelemetry(reg)
			if err := s.PowerOn(prng.NewKey(0x7E1E, 0x3E7)); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			addrs := make([]uint64, 12)
			for i := range addrs {
				addrs[i] = uint64(i) * BlockSize
			}
			count := func(op string) int64 {
				var n int64
				for si := 0; si < NumShards; si++ {
					n += reg.Histogram(fmt.Sprintf("specu.shard%02d.%s", si, op)).Snapshot().Count
				}
				return n
			}
			gauge := reg.Gauge("specu.plaintext_blocks")
			var enc, dec int64
			step := func(name string, dEnc, dDec int64) {
				t.Helper()
				enc += dEnc
				dec += dDec
				if g, p := gauge.Load(), int64(s.PlaintextBlocks()); g != p {
					t.Errorf("%s: plaintext gauge %d, PlaintextBlocks %d", name, g, p)
				}
				if got := count("encrypt"); got != enc {
					t.Errorf("%s: %d encrypts recorded, want %d", name, got, enc)
				}
				if got := count("decrypt"); got != dec {
					t.Errorf("%s: %d decrypts recorded, want %d", name, got, dec)
				}
			}
			read := func(as []uint64) {
				t.Helper()
				for _, a := range as {
					if _, err := s.Read(a); err != nil {
						t.Fatal(err)
					}
				}
			}
			write := func(as []uint64) {
				t.Helper()
				ops := make([]WriteOp, len(as))
				for i, a := range as {
					ops[i] = WriteOp{Addr: a, Data: batchPayload(int(a) + 1)}
				}
				for _, err := range s.WriteBatch(ctx, ops) {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			par := int64(0)
			if mode == Parallel {
				par = 1
			}

			write(addrs)
			step("fresh writes", 12, 0)
			// Ciphertext reads: Parallel reads through, Serial misses and
			// leaves blocks 0-5 plaintext.
			read(addrs[:6])
			step("reads of ciphertext", 0, 6)
			// Overwrites of ciphertext (6-9) and, in Serial, of plaintext
			// (0-1): one encrypt each, no decrypt either way.
			write(append(slices.Clone(addrs[:2]), addrs[6:10]...))
			step("overwrites", 6, 0)
			for _, err := range s.DecryptBatch(ctx, addrs[8:]) {
				if err != nil {
					t.Fatal(err)
				}
			}
			step("DecryptBatch", 0, 4)
			// Plaintext reads: Parallel re-encrypts, Serial hits.
			read(addrs[8:])
			step("reads of plaintext", 4*par, 0)
			read(addrs[6:8])
			step("more reads of ciphertext", 0, 2)
			pending := int64(s.PlaintextBlocks())
			if err := s.EncryptPending(); err != nil {
				t.Fatal(err)
			}
			step("EncryptPending", pending, 0)
			if g := gauge.Load(); g != 0 {
				t.Errorf("plaintext gauge %d after EncryptPending", g)
			}
		})
	}
}
