package core

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"snvmm/internal/prng"
	"snvmm/internal/xbar"
)

// testEngine builds the default engine once; the ILP placement is the
// expensive part and is safe to share across tests (engines are immutable,
// and the sync.Once keeps the lazy build race-clean under t.Parallel and
// the fuzz workers).
var (
	testEngine     *Engine
	testEngineErr  error
	testEngineOnce sync.Once
)

func sharedEngine() (*Engine, error) {
	testEngineOnce.Do(func() {
		testEngine, testEngineErr = NewEngine(DefaultParams())
	})
	return testEngine, testEngineErr
}

func engineForTest(t *testing.T) *Engine {
	t.Helper()
	e, err := sharedEngine()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineDefaultPlacement(t *testing.T) {
	e := engineForTest(t)
	// The paper's headline: 16 PoEs secure an 8x8 crossbar.
	if got := e.PoECount(); got != 16 {
		t.Errorf("PoE count = %d, want 16", got)
	}
	if e.DecryptLatencyCycles() != 16 || e.EncryptLatencyCycles() != 16 {
		t.Errorf("latencies %d/%d, want 16/16", e.DecryptLatencyCycles(), e.EncryptLatencyCycles())
	}
	// Section 6.4: 16 pulses x 100ns = 1.6us per block.
	if got := e.EncryptTime(); got < 1.59e-6 || got > 1.61e-6 {
		t.Errorf("EncryptTime = %g, want 1.6us", got)
	}
	if e.CrossbarsPerBlock() != 4 {
		t.Errorf("CrossbarsPerBlock = %d, want 4", e.CrossbarsPerBlock())
	}
}

func TestNewEngineExplicitPoEs(t *testing.T) {
	p := DefaultParams()
	p.PoEs = []xbar.Cell{{Row: 0, Col: 0}, {Row: 7, Col: 7}}
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	if e.PoECount() != 2 {
		t.Errorf("PoECount = %d", e.PoECount())
	}
	p.PoEs = []xbar.Cell{{Row: 9, Col: 0}}
	if _, err := NewEngine(p); err == nil {
		t.Error("expected out-of-bounds error")
	}
}

func TestNewEngineBadConfig(t *testing.T) {
	p := DefaultParams()
	p.Xbar.Rows = 1
	if _, err := NewEngine(p); err == nil {
		t.Error("expected validation error")
	}
}

func TestBlockEncryptDecryptRoundTrip(t *testing.T) {
	e := engineForTest(t)
	b, err := e.NewBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	key := prng.NewKey(rng.Uint64(), rng.Uint64())
	for trial := 0; trial < 5; trial++ {
		pt := make([]byte, BlockSize)
		rng.Read(pt)
		if err := b.WritePlain(pt); err != nil {
			t.Fatal(err)
		}
		if err := b.Encrypt(key, 42); err != nil {
			t.Fatal(err)
		}
		ct := b.ReadRaw()
		if bytes.Equal(ct, pt) {
			t.Error("ciphertext equals plaintext")
		}
		if err := b.Decrypt(key, 42); err != nil {
			t.Fatal(err)
		}
		got, err := b.ReadPlain()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pt) {
			t.Fatalf("round trip failed:\npt  %x\ngot %x", pt, got)
		}
	}
}

func TestBlockWrongKeyFails(t *testing.T) {
	e := engineForTest(t)
	b, err := e.NewBlock(3)
	if err != nil {
		t.Fatal(err)
	}
	pt := make([]byte, BlockSize)
	for i := range pt {
		pt[i] = byte(i)
	}
	key := prng.NewKey(111, 222)
	if err := b.WritePlain(pt); err != nil {
		t.Fatal(err)
	}
	if err := b.Encrypt(key, 0); err != nil {
		t.Fatal(err)
	}
	wrong := key.FlipBit(17)
	if err := b.Decrypt(wrong, 0); err != nil {
		t.Fatal(err)
	}
	got, _ := b.ReadPlain()
	if bytes.Equal(got, pt) {
		t.Error("wrong key recovered the plaintext")
	}
}

func TestBlockWrongTweakFails(t *testing.T) {
	e := engineForTest(t)
	b, err := e.NewBlock(4)
	if err != nil {
		t.Fatal(err)
	}
	pt := make([]byte, BlockSize)
	pt[0] = 0xA5
	key := prng.NewKey(5, 6)
	if err := b.WritePlain(pt); err != nil {
		t.Fatal(err)
	}
	if err := b.Encrypt(key, 100); err != nil {
		t.Fatal(err)
	}
	if err := b.Decrypt(key, 101); err != nil {
		t.Fatal(err)
	}
	got, _ := b.ReadPlain()
	if bytes.Equal(got, pt) {
		t.Error("wrong tweak recovered the plaintext")
	}
}

func TestBlockStateMachine(t *testing.T) {
	e := engineForTest(t)
	b, err := e.NewBlock(5)
	if err != nil {
		t.Fatal(err)
	}
	key := prng.NewKey(1, 2)
	pt := make([]byte, BlockSize)
	if err := b.WritePlain(pt); err != nil {
		t.Fatal(err)
	}
	if err := b.Decrypt(key, 0); err == nil {
		t.Error("decrypting a plaintext block should fail")
	}
	if err := b.Encrypt(key, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Encrypt(key, 0); err == nil {
		t.Error("double encryption should fail")
	}
	if _, err := b.ReadPlain(); err == nil {
		t.Error("ReadPlain on ciphertext should fail")
	}
	if err := b.WritePlain(pt); err == nil {
		t.Error("WritePlain on ciphertext should fail")
	}
	if err := b.WritePlain(pt[:10]); err == nil {
		t.Error("short write should fail")
	}
}

func TestBlockWearGrows(t *testing.T) {
	e := engineForTest(t)
	b, err := e.NewBlock(6)
	if err != nil {
		t.Fatal(err)
	}
	key := prng.NewKey(9, 9)
	pt := make([]byte, BlockSize)
	if err := b.WritePlain(pt); err != nil {
		t.Fatal(err)
	}
	w0 := b.Wear()
	if err := b.Encrypt(key, 0); err != nil {
		t.Fatal(err)
	}
	w1 := b.Wear()
	if w1 <= w0 {
		t.Errorf("wear did not grow: %d -> %d", w0, w1)
	}
}

// TestBlockWearSumsCrossbarWear checks that a block's total wear, which
// is computed from each crossbar's program and PoE counts without a
// per-cell copy, equals the sum of its crossbars' per-cell Wear, at 8x8
// and 16x16, after writes, encrypts, decrypts, the encrypt that restores
// a decrypt, and a re-key.
func TestBlockWearSumsCrossbarWear(t *testing.T) {
	for _, e := range equivEngines(t) {
		b, err := e.NewBlock(3)
		if err != nil {
			t.Fatal(err)
		}
		check := func(round int, step string) {
			t.Helper()
			var want uint64
			for _, w := range blockWear(b) {
				want += w
			}
			if got := b.Wear(); got != want {
				t.Fatalf("%dx%d round %d after %s: Wear() = %d, the crossbars' per-cell wear sums to %d",
					e.P.Xbar.Rows, e.P.Xbar.Cols, round, step, got, want)
			}
		}
		check(0, "fabrication")
		keys := []prng.Key{prng.NewKey(3, 4), prng.NewKey(5, 6)}
		for round, key := range []prng.Key{keys[0], keys[0], keys[1]} {
			if err := b.WritePlain(batchPayload(round)); err != nil {
				t.Fatal(err)
			}
			check(round, "write")
			for _, step := range []struct {
				name string
				run  func(prng.Key, uint64) error
			}{{"encrypt", b.Encrypt}, {"decrypt", b.Decrypt}, {"restoring encrypt", b.Encrypt}, {"decrypt", b.Decrypt}} {
				if err := step.run(key, 7); err != nil {
					t.Fatal(err)
				}
				check(round, step.name)
			}
		}
	}
}

func TestSubKeyDistinct(t *testing.T) {
	k := prng.NewKey(0xABC, 0xDEF)
	seen := map[prng.Key]bool{}
	for tweak := uint64(0); tweak < 16; tweak++ {
		for idx := 0; idx < 4; idx++ {
			sk := subKey(k, tweak, idx)
			if seen[sk] {
				t.Errorf("subkey collision at tweak=%d idx=%d", tweak, idx)
			}
			seen[sk] = true
		}
	}
}

func TestCipherRoundTrip(t *testing.T) {
	e := engineForTest(t)
	c, err := NewCipher(e, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		key := prng.NewKey(rng.Uint64(), rng.Uint64())
		pt := make([]byte, c.BlockBytes())
		rng.Read(pt)
		ct, err := c.Encrypt(key, pt)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(ct, pt) {
			t.Error("cipher left plaintext unchanged")
		}
		back, err := c.Decrypt(key, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, pt) {
			t.Fatalf("cipher round trip failed")
		}
	}
}

func TestCipherSizes(t *testing.T) {
	e := engineForTest(t)
	c, err := NewCipher(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.BlockBytes() != 16 {
		t.Errorf("BlockBytes = %d, want 16 (128 bits)", c.BlockBytes())
	}
	if _, err := c.Encrypt(prng.NewKey(1, 1), make([]byte, 5)); err == nil {
		t.Error("expected size error")
	}
	if _, err := c.Decrypt(prng.NewKey(1, 1), make([]byte, 5)); err == nil {
		t.Error("expected size error")
	}
}

func TestCipherKeyAvalanche(t *testing.T) {
	// Flipping any single key bit should change the ciphertext for most
	// bits flipped (a weak form of the Table 2 key-avalanche property).
	e := engineForTest(t)
	c, err := NewCipher(e, 2)
	if err != nil {
		t.Fatal(err)
	}
	key := prng.NewKey(0x123456789AB, 0x5566778899A)
	pt := make([]byte, c.BlockBytes())
	base, err := c.Encrypt(key, pt)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	for i := 0; i < prng.KeyBits; i += 7 {
		ct, err := c.Encrypt(key.FlipBit(i), pt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ct, base) {
			changed++
		}
	}
	if changed < 10 {
		t.Errorf("only %d/13 key-bit flips changed the ciphertext", changed)
	}
}

func TestCipherPlaintextAvalanche(t *testing.T) {
	// Changing one plaintext cell changes more than that cell in the
	// ciphertext (data-dependence through the sneak environment).
	e := engineForTest(t)
	c, err := NewCipher(e, 3)
	if err != nil {
		t.Fatal(err)
	}
	key := prng.NewKey(42, 43)
	pt := make([]byte, c.BlockBytes())
	base, err := c.Encrypt(key, pt)
	if err != nil {
		t.Fatal(err)
	}
	spread := 0
	for trial := 0; trial < 16; trial++ {
		pt2 := make([]byte, len(pt))
		copy(pt2, pt)
		pt2[trial] ^= 0x3
		ct, err := c.Encrypt(key, pt2)
		if err != nil {
			t.Fatal(err)
		}
		diffBytes := 0
		for i := range ct {
			if ct[i] != base[i] {
				diffBytes++
			}
		}
		if diffBytes > 1 {
			spread++
		}
	}
	if spread == 0 {
		t.Error("plaintext changes never spread beyond their own cell")
	}
}
