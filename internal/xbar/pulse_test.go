package xbar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"snvmm/internal/device"
)

func TestPermsAreBijections(t *testing.T) {
	if len(perms) != 24 {
		t.Fatalf("got %d permutations, want 24", len(perms))
	}
	seen := map[[4]int]bool{}
	for _, p := range perms {
		if seen[p] {
			t.Errorf("duplicate permutation %v", p)
		}
		seen[p] = true
		var hit [4]bool
		for _, v := range p {
			hit[v] = true
		}
		for v, ok := range hit {
			if !ok {
				t.Errorf("perm %v misses value %d", p, v)
			}
		}
	}
	if perms[0] != [4]int{0, 1, 2, 3} {
		t.Errorf("perms[0] = %v, want identity", perms[0])
	}
}

func TestInvPerms(t *testing.T) {
	for i, p := range perms {
		inv := invPerms[i]
		for v := 0; v < 4; v++ {
			if inv[p[v]] != v {
				t.Errorf("invPerms[%d] does not invert perms[%d]", i, i)
			}
		}
	}
}

func TestPermIndexRangeAndSpread(t *testing.T) {
	counts := make([]int, 24)
	for w := 0; w < device.NumWidths; w++ {
		for s := uint64(0); s < 64; s++ {
			for idx := 0; idx < 64; idx++ {
				pi := permIndex(w, splitmix64(s), idx)
				if pi < 0 || pi >= 24 {
					t.Fatalf("permIndex(%d,%d,%d) = %d out of [0,24)", w, s, idx, pi)
				}
				counts[pi]++
			}
		}
	}
	// Every permutation should be reachable and roughly uniform.
	total := device.NumWidths * 64 * 64
	for pi, c := range counts {
		if c == 0 {
			t.Errorf("permutation %d never selected", pi)
		}
		if c < total/24/2 || c > total/24*2 {
			t.Errorf("permutation %d selected %d times (expect ~%d)", pi, c, total/24)
		}
	}
}

func TestApplyPulseInvalidClass(t *testing.T) {
	xb := newTestXbar(t)
	cal := Calibrate(xb)
	if err := xb.ApplyPulse(cal, Cell{0, 0}, -1); err == nil {
		t.Error("expected class error")
	}
	if err := xb.ApplyPulse(cal, Cell{0, 0}, device.NumPulses); err == nil {
		t.Error("expected class error")
	}
}

func TestInverseClass(t *testing.T) {
	for c := 0; c < device.NumPulses; c++ {
		ic := InverseClass(c)
		if InverseClass(ic) != c {
			t.Errorf("InverseClass not involutive at %d", c)
		}
		if (c < device.NumWidths) == (ic < device.NumWidths) {
			t.Errorf("InverseClass(%d) = %d has same polarity", c, ic)
		}
	}
}

// TestPulseRoundTrip is the central invertibility property: applying a pulse
// and then its inverse class at the same PoE restores the exact state, for
// any data and any pulse.
func TestPulseRoundTrip(t *testing.T) {
	xb := newTestXbar(t)
	cal := Calibrate(xb)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		levels := make([]int, xb.Cfg.Cells())
		for i := range levels {
			levels[i] = rng.Intn(device.Levels)
		}
		if err := xb.SetLevels(levels); err != nil {
			return false
		}
		poe := Cell{rng.Intn(8), rng.Intn(8)}
		class := rng.Intn(device.NumPulses)
		if err := xb.ApplyPulse(cal, poe, class); err != nil {
			return false
		}
		if err := xb.ApplyPulse(cal, poe, InverseClass(class)); err != nil {
			return false
		}
		got := xb.Levels()
		for i := range levels {
			if got[i] != levels[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPulseSequenceRoundTrip: a whole sequence of pulses at different PoEs
// is undone by the inverse pulses in reverse order — the paper's decryption
// procedure (Fig. 2a).
func TestPulseSequenceRoundTrip(t *testing.T) {
	xb := newTestXbar(t)
	cal := Calibrate(xb)
	rng := rand.New(rand.NewSource(11))
	levels := make([]int, xb.Cfg.Cells())
	for i := range levels {
		levels[i] = rng.Intn(device.Levels)
	}
	if err := xb.SetLevels(levels); err != nil {
		t.Fatal(err)
	}
	type step struct {
		poe   Cell
		class int
	}
	var seq []step
	for k := 0; k < 16; k++ {
		seq = append(seq, step{Cell{rng.Intn(8), rng.Intn(8)}, rng.Intn(device.NumPulses)})
	}
	for _, s := range seq {
		if err := xb.ApplyPulse(cal, s.poe, s.class); err != nil {
			t.Fatal(err)
		}
	}
	for k := len(seq) - 1; k >= 0; k-- {
		if err := xb.ApplyPulse(cal, seq[k].poe, InverseClass(seq[k].class)); err != nil {
			t.Fatal(err)
		}
	}
	got := xb.Levels()
	for i := range levels {
		if got[i] != levels[i] {
			t.Fatalf("sequence round trip failed at cell %d: %d != %d", i, got[i], levels[i])
		}
	}
}

// TestPulseOrderMatters reproduces Fig. 2b: undoing the pulses in the SAME
// order (not reversed) generally fails to recover the plaintext.
func TestPulseOrderMatters(t *testing.T) {
	xb := newTestXbar(t)
	cal := Calibrate(xb)
	rng := rand.New(rand.NewSource(17))
	mismatches := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		levels := make([]int, xb.Cfg.Cells())
		for i := range levels {
			levels[i] = rng.Intn(device.Levels)
		}
		if err := xb.SetLevels(levels); err != nil {
			t.Fatal(err)
		}
		// Two overlapping PoEs in the same column so the polyominoes
		// interact, with different pulse classes.
		steps := []struct {
			poe   Cell
			class int
		}{
			{Cell{2, 4}, 3},
			{Cell{5, 4}, 9},
		}
		for _, s := range steps {
			if err := xb.ApplyPulse(cal, s.poe, s.class); err != nil {
				t.Fatal(err)
			}
		}
		// Wrong order: undo step 0 first.
		for _, s := range steps {
			if err := xb.ApplyPulse(cal, s.poe, InverseClass(s.class)); err != nil {
				t.Fatal(err)
			}
		}
		got := xb.Levels()
		for i := range levels {
			if got[i] != levels[i] {
				mismatches++
				break
			}
		}
	}
	if mismatches == 0 {
		t.Error("same-order decryption always recovered plaintext; PoE order should matter")
	}
}

// TestPulseDataDependence: the effect of a pulse on the polyomino depends on
// data stored OUTSIDE the polyomino (the sneak environment).
func TestPulseDataDependence(t *testing.T) {
	xb := newTestXbar(t)
	cal := Calibrate(xb)
	poe := Cell{4, 3}
	shape, err := cal.Shape(poe)
	if err != nil {
		t.Fatal(err)
	}
	inShape := make(map[int]bool)
	for _, c := range shape {
		inShape[xb.Cfg.Index(c)] = true
	}
	// Find a complement cell whose level flips at least one strength when
	// toggled across trials.
	rng := rand.New(rand.NewSource(23))
	diffs := 0
	for trial := 0; trial < 50; trial++ {
		levels := make([]int, xb.Cfg.Cells())
		for i := range levels {
			levels[i] = rng.Intn(device.Levels)
		}
		s1, err := cal.Strengths(levels, poe)
		if err != nil {
			t.Fatal(err)
		}
		// Change every complement cell's level.
		for i := range levels {
			if !inShape[i] {
				levels[i] = (levels[i] + 2) % device.Levels
			}
		}
		s2, err := cal.Strengths(levels, poe)
		if err != nil {
			t.Fatal(err)
		}
		for k := range s1 {
			if s1[k] != s2[k] {
				diffs++
				break
			}
		}
	}
	if diffs == 0 {
		t.Error("strength classes never depend on complement data; avalanche would fail")
	}
}

func TestStrengthsDeterministicAndInRange(t *testing.T) {
	xb := newTestXbar(t)
	cal := Calibrate(xb)
	levels := make([]int, xb.Cfg.Cells())
	for i := range levels {
		levels[i] = i % device.Levels
	}
	s1, err := cal.Strengths(levels, Cell{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := cal.Strengths(levels, Cell{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := range s1 {
		if s1[k] < 1 || s1[k] > 3 {
			t.Errorf("strength %d out of range", s1[k])
		}
		if s1[k] != s2[k] {
			t.Error("strengths not deterministic")
		}
	}
	// The []int API packs its argument, 2 bits per cell: a level outside
	// [0, Levels) or a wrong length is an error, not a neighbour's bits.
	levels[5] = device.Levels
	if _, err := cal.Strengths(levels, Cell{1, 1}); err == nil {
		t.Error("Strengths accepted an out-of-range level")
	}
	if _, err := cal.Mixers(levels[:len(levels)-1], Cell{1, 1}); err == nil {
		t.Error("Mixers accepted a short level slice")
	}
}

func TestCalibrationBaseline(t *testing.T) {
	xb := newTestXbar(t)
	cal := Calibrate(xb)
	base, err := cal.Baseline(Cell{4, 3})
	if err != nil {
		t.Fatal(err)
	}
	shape, _ := cal.Shape(Cell{4, 3})
	if len(base) != len(shape) {
		t.Fatalf("baseline size %d != shape size %d", len(base), len(shape))
	}
	for k, v := range base {
		if v < 0 {
			t.Errorf("baseline[%d] = %g negative", k, v)
		}
	}
}

func TestMonteCarloWireStability(t *testing.T) {
	// Paper: ±5% wire variation leaves the polyomino unchanged.
	cfg := DefaultConfig()
	res, err := MonteCarloShape(cfg, Cell{4, 3}, 30, 0.05, 0, 77, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShapeChanged != 0 {
		t.Errorf("wire variation changed shape in %d/%d samples", res.ShapeChanged, res.Samples)
	}
}

func TestMonteCarloMacroChangesShape(t *testing.T) {
	// Macro-level device changes should (at least sometimes) change the
	// polyomino.
	cfg := DefaultConfig()
	res, err := MonteCarloShape(cfg, Cell{4, 3}, 30, 0.05, 0.9, 78, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShapeChanged == 0 {
		t.Logf("macro variation never changed shape (MaxVoltDelta=%g); acceptable but weak", res.MaxVoltDelta)
	}
	if res.MaxVoltDelta <= 0 {
		t.Error("macro variation produced zero voltage deviation")
	}
}

func TestDynamicShapeStability(t *testing.T) {
	xb := newTestXbar(t)
	changed, mismatch, err := xb.DynamicShapeStability(Cell{Row: 4, Col: 3}, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	if changed < 0 || changed > 1 || mismatch < 0 || mismatch > 1 {
		t.Fatalf("fractions out of range: %g %g", changed, mismatch)
	}
	// The calibrated-shape assumption requires per-cell membership to be
	// largely stable under data swings; a few percent mismatch is the
	// price the dynamic mode would pay.
	if mismatch > 0.2 {
		t.Errorf("per-cell membership mismatch %.1f%% too high for the calibrated-shape model", mismatch*100)
	}
	t.Logf("dynamic shape: %.0f%% of data patterns perturb membership; %.2f%% of cells affected",
		changed*100, mismatch*100)
}
