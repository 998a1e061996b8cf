package core

import (
	"bytes"
	"sync"
	"testing"

	"snvmm/internal/prng"
	"snvmm/internal/xbar"
)

// newFreshBlock builds a block exactly like Engine.NewBlock but with private
// per-crossbar calibrations, bypassing the process-wide cache — the
// pre-cache behaviour the cached path must reproduce bit-for-bit.
func newFreshBlock(t *testing.T, e *Engine, seed int64) *Block {
	t.Helper()
	n := e.CrossbarsPerBlock()
	b := &Block{eng: e, xbs: make([]*xbar.Crossbar, n), cals: make([]*xbar.Calibration, n)}
	b.scheds = make([]prng.Schedule, n)
	for i := range b.xbs {
		cfg := e.P.Xbar
		cfg.Seed = seed*257 + int64(i)
		xb, err := xbar.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b.xbs[i] = xb
		b.cals[i] = xbar.Calibrate(xb)
	}
	return b
}

// TestCachedCalibrationMatchesFresh extends the golden contract to the
// calibration cache: a block whose calibrations come from the shared cache
// must produce ciphertext bit-identical to one characterized privately. The
// cache is keyed on fabrication identity (config minus seed), so this is
// what makes the sharing an optimization rather than a format change.
func TestCachedCalibrationMatchesFresh(t *testing.T) {
	e := engineForTest(t)
	plain := goldenPlain()
	key := prng.NewKey(0x5EED5EED, 0xCAFEF00D)
	tweak := uint64(0x77)
	for _, seed := range []int64{42, 7} {
		cached, err := e.NewBlock(seed)
		if err != nil {
			t.Fatal(err)
		}
		fresh := newFreshBlock(t, e, seed)
		var cts [2][]byte
		for i, b := range []*Block{cached, fresh} {
			if err := b.WritePlain(plain); err != nil {
				t.Fatal(err)
			}
			if err := b.Encrypt(key, tweak); err != nil {
				t.Fatal(err)
			}
			cts[i] = b.ReadRaw()
		}
		if !bytes.Equal(cts[0], cts[1]) {
			t.Errorf("seed %d: cached calibration ciphertext diverged from fresh:\n cached %x\n fresh  %x",
				seed, cts[0], cts[1])
		}
		if err := cached.Decrypt(key, tweak); err != nil {
			t.Fatal(err)
		}
		got, err := cached.ReadPlain()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, plain) {
			t.Errorf("seed %d: cached block round trip broke", seed)
		}
	}
}

// TestConcurrentBlockFabrication races many NewBlock calls — all resolving
// the same fabrication identity through the calibration cache — and then
// encrypts on each, so per-PoE first-touch characterization runs
// concurrently too. Must be clean under -race and all blocks must agree.
func TestConcurrentBlockFabrication(t *testing.T) {
	e := engineForTest(t)
	plain := goldenPlain()
	key := prng.NewKey(0xAB, 0xCD)
	const workers = 8
	cts := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b, err := e.NewBlock(int64(100 + w))
			if err != nil {
				t.Error(err)
				return
			}
			if err := b.WritePlain(plain); err != nil {
				t.Error(err)
				return
			}
			if err := b.Encrypt(key, 0); err != nil {
				t.Error(err)
				return
			}
			cts[w] = b.ReadRaw()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !bytes.Equal(cts[w], cts[0]) {
			t.Errorf("worker %d ciphertext diverged", w)
		}
	}
}
