package core

import (
	"bytes"
	"testing"

	"snvmm/internal/device"
	"snvmm/internal/prng"
	"snvmm/internal/xbar"
)

// The golden vectors pin the full keyed pipeline for one fixed key: the
// ILP's PoE placement for the default 8x8 crossbar, the key-derived
// (PoE-order, pulse-class) schedule, and the exact ciphertext of a fixed
// block. Any drift in the ILP tie-breaking, the PRNG, the schedule
// derivation or the pulse semantics shows up here as a vector mismatch —
// which would silently strand every previously written ciphertext, so a
// change that trips this test needs a data-migration story, not just new
// vectors.
var (
	goldenKey   = prng.NewKey(0x0123456789ABCDEF, 0xFEDCBA9876543210)
	goldenTweak = uint64(0x1C0)

	// The placement is the canonical (lexicographically smallest by
	// row-major cell index, preferring NOT selecting earlier cells)
	// optimal solution — the solver guarantees this vector for any search
	// order, which is what lets it be pinned at all.
	goldenPlacement = []xbar.Cell{
		{Row: 0, Col: 3}, {Row: 0, Col: 4}, {Row: 1, Col: 1}, {Row: 1, Col: 2},
		{Row: 1, Col: 5}, {Row: 1, Col: 6}, {Row: 2, Col: 0}, {Row: 2, Col: 7},
		{Row: 6, Col: 0}, {Row: 6, Col: 3}, {Row: 6, Col: 4}, {Row: 6, Col: 7},
		{Row: 7, Col: 1}, {Row: 7, Col: 2}, {Row: 7, Col: 5}, {Row: 7, Col: 6},
	}
	goldenOrder   = []int{9, 2, 5, 11, 4, 3, 10, 14, 6, 7, 1, 12, 13, 8, 15, 0}
	goldenClasses = []int{16, 19, 15, 12, 4, 9, 31, 22, 25, 30, 6, 7, 25, 7, 0, 28}

	// Ciphertext of goldenPlain (below) written to block seed 42 and
	// encrypted with (goldenKey, goldenTweak).
	//
	// Vector history: regenerated once when the calibration moved to
	// fixed-point (2^-40) quantized sensitivity weights and the solver to
	// Cholesky — both perturb the modelled sneak voltages below physical
	// significance but through the comparator-sensitive mixer, so the
	// ciphertext changed format-wide. Migration story for that change: the
	// simulator persists no ciphertext, and a real deployment would decrypt
	// under the pre-quantization model, upgrade the SPECU, and re-encrypt
	// on the scrub sweep (the paper's §5 re-encryption path); the
	// placement, schedule and key format are untouched.
	//
	// Regenerated a second time when the placement solver gained canonical
	// (lex-min) solution selection: the previous placement was whichever
	// optimum the sequential search happened to visit first, the new one is
	// the unique canonical optimum (same size, 16 PoEs), so the placement —
	// and through it the per-cell PoE geometry the mixer sees — moved.
	// Schedule order/classes depend only on the key and the PoE count and
	// are unchanged; migration for deployments is the same decrypt-under-
	// old-placement, re-encrypt-on-scrub path as above.
	//
	// Regenerated a third time when the dense solvers moved to blocked
	// kernels and the calibration's sensitivity sweep to the batched
	// (probe-form) Sherman–Morrison update: fixed-block summation order and
	// the u^T G^-1 u denominator identity change the modelled voltages at
	// the last few ulps, again only visible through the comparator-sensitive
	// mixer. The placement and schedule vectors above are byte-identical
	// (the ILP does not touch the dense kernels); migration is the same
	// decrypt-under-old-model, re-encrypt-on-scrub path as the first
	// regeneration.
	goldenCiphertext = []byte{
		0xae, 0x8a, 0x06, 0x32, 0xe4, 0x0d, 0x1b, 0xc1,
		0xdf, 0x3b, 0x37, 0x75, 0x1e, 0xb0, 0xc7, 0xe6,
		0xf4, 0xdd, 0xec, 0xf6, 0x44, 0x73, 0x88, 0x4a,
		0x99, 0x2c, 0xda, 0x0b, 0x62, 0x63, 0x9f, 0x0c,
		0xd6, 0xb3, 0x93, 0x3d, 0x7c, 0x3e, 0x2d, 0x11,
		0x8c, 0x06, 0xcb, 0xd4, 0x42, 0x80, 0x11, 0xb8,
		0x6e, 0xa2, 0xa4, 0xad, 0xaf, 0xe3, 0xab, 0x4f,
		0xc8, 0x3d, 0xac, 0xfa, 0x7b, 0x23, 0xcc, 0x05,
	}
)

func goldenPlain() []byte {
	data := make([]byte, BlockSize)
	for i := range data {
		data[i] = byte(i*37 + 11)
	}
	return data
}

func TestGoldenPlacement(t *testing.T) {
	e := engineForTest(t)
	if len(e.Placement) != len(goldenPlacement) {
		t.Fatalf("placement has %d PoEs, golden %d", len(e.Placement), len(goldenPlacement))
	}
	for i, p := range e.Placement {
		if p != goldenPlacement[i] {
			t.Errorf("placement[%d] = %+v, golden %+v", i, p, goldenPlacement[i])
		}
	}
}

func TestGoldenSchedule(t *testing.T) {
	sched := prng.DeriveSchedule(goldenKey, len(goldenPlacement), device.NumPulses)
	if len(sched.Order) != len(goldenOrder) || len(sched.Classes) != len(goldenClasses) {
		t.Fatalf("schedule lengths %d/%d, golden %d/%d",
			len(sched.Order), len(sched.Classes), len(goldenOrder), len(goldenClasses))
	}
	for i := range goldenOrder {
		if sched.Order[i] != goldenOrder[i] {
			t.Errorf("order[%d] = %d, golden %d", i, sched.Order[i], goldenOrder[i])
		}
		if sched.Classes[i] != goldenClasses[i] {
			t.Errorf("classes[%d] = %d, golden %d", i, sched.Classes[i], goldenClasses[i])
		}
	}
}

func TestGoldenCiphertext(t *testing.T) {
	e := engineForTest(t)
	b, err := e.NewBlock(42)
	if err != nil {
		t.Fatal(err)
	}
	plain := goldenPlain()
	if err := b.WritePlain(plain); err != nil {
		t.Fatal(err)
	}
	if err := b.Encrypt(goldenKey, goldenTweak); err != nil {
		t.Fatal(err)
	}
	if ct := b.ReadRaw(); !bytes.Equal(ct, goldenCiphertext) {
		t.Errorf("ciphertext drifted:\n got  %x\n want %x", ct, goldenCiphertext)
	}
	if err := b.Decrypt(goldenKey, goldenTweak); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadPlain()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Errorf("golden round trip broke:\n got  %x\n want %x", got, plain)
	}
}
