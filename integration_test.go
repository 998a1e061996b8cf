package snvmm

// Integration tests spanning module boundaries: facade + NIST, SPE + ECC,
// SPE + wear leveling, the full hierarchy power cycle, and the security
// end-to-end properties the paper's threat model demands.

import (
	"bytes"
	"testing"

	"snvmm/internal/attacks"
	"snvmm/internal/core"
	"snvmm/internal/ecc"
	"snvmm/internal/mem"
	"snvmm/internal/nist"
	"snvmm/internal/prng"
	"snvmm/internal/secure"
	"snvmm/internal/sim"
	"snvmm/internal/trace"
	"snvmm/internal/wearlevel"
)

// TestStolenDumpLooksRandom: the ciphertext an attacker steals from a
// powered-down device must pass the basic NIST battery — Attack 1 yields
// nothing distinguishable from noise, even for an all-zero plaintext.
func TestStolenDumpLooksRandom(t *testing.T) {
	dev, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.PowerOn(); err != nil {
		t.Fatal(err)
	}
	// Fill blocks with zeros (the hardest plaintext to hide).
	const blocks = 64
	zero := make([]byte, BlockSize)
	for i := uint64(0); i < blocks; i++ {
		if err := dev.Write(i*BlockSize, zero); err != nil {
			t.Fatal(err)
		}
	}
	if err := dev.PowerOff(); err != nil {
		t.Fatal(err)
	}
	var bits []uint8
	for i := uint64(0); i < blocks; i++ {
		dump, err := dev.Steal(i * BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range dump {
			for k := 0; k < 8; k++ {
				bits = append(bits, b>>uint(k)&1)
			}
		}
	}
	for _, test := range []func([]uint8) nist.Result{
		nist.Frequency,
		func(b []uint8) nist.Result { return nist.BlockFrequency(b, 128) },
		nist.Runs,
		nist.LongestRunOfOnes,
		nist.CumulativeSums,
		func(b []uint8) nist.Result { return nist.ApproximateEntropy(b, 5) },
	} {
		r := test(bits)
		if r.Applicable && !r.Pass(nist.Alpha) {
			t.Errorf("stolen all-zero-plaintext dump fails %s (p=%v)", r.Name, r.P)
		}
	}
}

// TestSPEWithECC: the Section 3 mitigation — wrap SPE ciphertext in SECDED
// so a radiation-flipped cell does not destroy the block after decryption.
func TestSPEWithECC(t *testing.T) {
	dev, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.PowerOn(); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 56) // 56 data bytes -> 63 coded, padded to 64
	copy(payload, []byte("ecc-protected secret payload"))
	coded, err := ecc.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, BlockSize)
	copy(block, coded)
	if err := dev.Write(0, block); err != nil {
		t.Fatal(err)
	}
	got, err := dev.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	data, corrected, err := ecc.Decode(got[:len(coded)])
	if err != nil || corrected != 0 {
		t.Fatalf("clean path: err=%v corrected=%d", err, corrected)
	}
	if !bytes.Equal(data, payload) {
		t.Error("ECC+SPE round trip failed")
	}
	// Inject a single-bit upset in the *plaintext domain* (after read):
	// SECDED corrects it.
	got[3] ^= 0x10
	data, corrected, err = ecc.Decode(got[:len(coded)])
	if err != nil || corrected != 1 {
		t.Fatalf("upset path: err=%v corrected=%d", err, corrected)
	}
	if !bytes.Equal(data, payload) {
		t.Error("single-bit upset not corrected")
	}
}

// TestCiphertextBitflipAvalanche: one bit flipped in the *stored
// ciphertext* (an in-array upset) garbles at least 8 plaintext bits after
// decryption — SPE diffuses the error. A SECDED code wrapped around the
// plaintext corrects one flipped bit per codeword, so it cannot correct an
// upset that happens in the array; only a code over the stored
// ciphertext could.
func TestCiphertextBitflipAvalanche(t *testing.T) {
	eng, err := coreEngine()
	if err != nil {
		t.Fatal(err)
	}
	ciph, err := coreCipher(eng, 11)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(7)
	pt := make([]byte, ciph.BlockBytes())
	copy(pt, []byte("0123456789abcdef"))
	ct, err := ciph.Encrypt(key, pt)
	if err != nil {
		t.Fatal(err)
	}
	ct[5] ^= 0x04
	got, err := ciph.Decrypt(key, ct)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range got {
		x := got[i] ^ pt[i]
		for ; x != 0; x &= x - 1 {
			diff++
		}
	}
	if diff < 8 {
		t.Errorf("in-array upset changed only %d plaintext bits; expected avalanche", diff)
	}
}

// TestWearLeveledSPEAddressing: compose start-gap with the SPE device —
// logical blocks migrate physically while data stays readable.
func TestWearLeveledSPEAddressing(t *testing.T) {
	const lines = 64
	m, err := wearlevel.New(lines, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.PowerOn(); err != nil {
		t.Fatal(err)
	}
	// Write logical lines through the wear-level mapping.
	content := func(l int) []byte {
		b := make([]byte, BlockSize)
		b[0] = byte(l)
		b[63] = byte(l ^ 0x5A)
		return b
	}
	phys := make(map[int]int)
	for l := 0; l < 8; l++ {
		pa, err := m.WriteNotify(l)
		if err != nil {
			t.Fatal(err)
		}
		phys[l] = pa
		if err := dev.Write(uint64(pa)*BlockSize, content(l)); err != nil {
			t.Fatal(err)
		}
	}
	// Read back through the *current* mapping: the gap may have moved, so
	// re-map and verify the expected relocations are consistent.
	for l := 0; l < 8; l++ {
		got, err := dev.Read(uint64(phys[l]) * BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, content(l)) {
			t.Errorf("logical %d corrupted through wear-level mapping", l)
		}
	}
}

// TestHierarchyPowerCycleWindow: the full Section 6.4 flow on the memory
// hierarchy — dirty the caches, power down, verify the engine reports a
// fully-encrypted NVMM and a window in the expected range.
func TestHierarchyPowerCycleWindow(t *testing.T) {
	engine := secure.NewSPESerial(10_000)
	h, err := mem.DefaultHierarchy(engine)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		h.StoreAccess(uint64(i)*64, uint64(i))
		h.LoadLatency(uint64(i)*64+1<<24, uint64(i))
	}
	if engine.EncryptedFraction() == 1 {
		t.Fatal("expected plaintext blocks before power-down")
	}
	dirty, cycles := h.PowerDown(1 << 20)
	if dirty == 0 {
		t.Fatal("no dirty lines flushed")
	}
	if engine.EncryptedFraction() != 1 {
		t.Error("NVMM not fully encrypted after power-down")
	}
	// Window must be dominated by the per-block 5120-cycle encryption.
	if cycles < uint64(dirty)*100 {
		t.Errorf("window %d cycles implausibly small for %d lines", cycles, dirty)
	}
}

// TestSchemeCrossoverBzip2VsSjeng pins the paper's Fig. 7/8 narrative: on
// hot-page bzip2, i-NVMM keeps more memory plaintext than on
// wide-footprint sjeng, while SPE-serial holds high coverage on both.
func TestSchemeCrossoverBzip2VsSjeng(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func(name string) (invmm, spe float64) {
		p, err := trace.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := sim.Run(p, secure.NewINVMM(300_000), 250_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := sim.Run(p, secure.NewSPESerial(10_000), 250_000, 1)
		if err != nil {
			t.Fatal(err)
		}
		return r1.AvgEncrypted, r2.AvgEncrypted
	}
	bzInv, bzSpe := run("bzip2")
	sjInv, sjSpe := run("sjeng")
	if bzInv <= sjInv {
		t.Errorf("i-NVMM coverage bzip2 %.2f <= sjeng %.2f; hot pages should stay plaintext on bzip2 but its footprint is smaller", bzInv, sjInv)
	}
	if bzSpe < 0.95 || sjSpe < 0.95 {
		t.Errorf("SPE-serial coverage dropped: bzip2 %.2f sjeng %.2f", bzSpe, sjSpe)
	}
}

// TestBruteForceConsistency ties the attack model to the engine: the
// search-space size must follow the actual placement and pulse library.
func TestBruteForceConsistency(t *testing.T) {
	dev, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bf := attacks.BruteForce{
		Cells:  64,
		PoEs:   len(dev.PlacementCells()),
		Pulses: 32,
	}
	if bf.PoEs != 16 {
		t.Fatalf("placement has %d PoEs", bf.PoEs)
	}
	y, err := bf.Log10Years()
	if err != nil {
		t.Fatal(err)
	}
	if y < 30 {
		t.Errorf("brute force only 10^%.1f years", y)
	}
}

// --- helpers bridging to internal packages ---

func coreEngine() (*core.Engine, error) { return core.NewEngine(core.DefaultParams()) }

func coreCipher(e *core.Engine, seed int64) (*core.Cipher, error) { return core.NewCipher(e, seed) }

func testKey(seed uint64) prng.Key {
	g := prng.NewGen(seed)
	return prng.NewKey(g.Uint64(), g.Uint64())
}
