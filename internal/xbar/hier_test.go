package xbar

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"snvmm/internal/circuit"
	"snvmm/internal/device"
)

// TestDissectionOrderIsPermutation: the analytic nested-dissection order
// must cover every unknown of the floating network exactly once, at even,
// odd and skewed geometries.
func TestDissectionOrderIsPermutation(t *testing.T) {
	for _, size := range []struct{ rows, cols int }{{2, 2}, {5, 3}, {8, 8}, {7, 9}, {16, 16}} {
		x, err := New(sizedConfig(size.rows, size.cols))
		if err != nil {
			t.Fatal(err)
		}
		ord := x.dissectionOrder()
		n := x.totalNodes() - 1
		if len(ord) != n {
			t.Fatalf("%dx%d: order length %d, want %d", size.rows, size.cols, len(ord), n)
		}
		seen := make([]bool, n)
		for _, u := range ord {
			if u < 0 || u >= n || seen[u] {
				t.Fatalf("%dx%d: order is not a permutation at unknown %d", size.rows, size.cols, u)
			}
			seen[u] = true
		}
	}
}

// TestHierMatchesDenseCalibration cross-validates the hierarchical path
// against the legacy per-PoE dense path at 8x8, where the default radius
// (8) covers the whole array: same physics through a third solver route.
// Tolerances mirror TestSketchMatchesDenseCalibration.
func TestHierMatchesDenseCalibration(t *testing.T) {
	cfgDense := sizedConfig(8, 8)
	cfgDense.Characterization = CharDense
	cfgHier := sizedConfig(8, 8)
	cfgHier.Characterization = CharHier
	for _, poe := range []Cell{{Row: 0, Col: 0}, {Row: 4, Col: 4}, {Row: 7, Col: 2}} {
		_, pcD := calFor(t, cfgDense, poe)
		cH, pcH := calFor(t, cfgHier, poe)
		sk, _, err := cH.sketch()
		if err != nil {
			t.Fatal(err)
		}
		if sk.Backend() != circuit.SketchHier {
			t.Fatalf("CharHier resolved to backend %v", sk.Backend())
		}
		if len(pcD.shape) != len(pcH.shape) {
			t.Fatalf("PoE %+v: shape size %d vs %d", poe, len(pcD.shape), len(pcH.shape))
		}
		for k := range pcD.base {
			if d := math.Abs(pcD.base[k] - pcH.base[k]); d > 1e-9*math.Abs(pcD.base[k])+1e-12 {
				t.Fatalf("PoE %+v shape %d: base %g vs %g", poe, k, pcD.base[k], pcH.base[k])
			}
		}
		if len(pcD.compIdx) != len(pcH.compIdx) {
			t.Fatalf("PoE %+v: compIdx %d vs %d cells", poe, len(pcD.compIdx), len(pcH.compIdx))
		}
		for j := range pcD.compIdx {
			if pcD.compIdx[j] != pcH.compIdx[j] {
				t.Fatalf("PoE %+v: compIdx[%d] %d vs %d", poe, j, pcD.compIdx[j], pcH.compIdx[j])
			}
		}
		for k := range pcD.shape {
			for j := range pcD.compIdx {
				wd, wh := weight(pcD, k, j), weight(pcH, k, j)
				lim := int64(math.Abs(float64(wd))*1e-6) + 8
				if d := wd - wh; d > lim || d < -lim {
					t.Fatalf("PoE %+v w[%d][%d]: dense %d vs hier %d", poe, k, j, wd, wh)
				}
			}
		}
	}
}

// TestHierMatchesSketch16 cross-validates the hierarchical backend against
// the dense-table sketch backend at 16x16 with a radius that covers the
// array — the two sketch routes must characterize identically up to
// factorization round-off.
func TestHierMatchesSketch16(t *testing.T) {
	cfgS := sizedConfig(16, 16)
	cfgS.Characterization = CharSparse
	cfgH := sizedConfig(16, 16)
	cfgH.Characterization = CharHier
	cfgH.TruncationRadius = 15 // >= fullRad of every PoE: no truncation
	for _, poe := range []Cell{{Row: 8, Col: 8}, {Row: 0, Col: 15}} {
		_, pcS := calFor(t, cfgS, poe)
		_, pcH := calFor(t, cfgH, poe)
		if len(pcS.compIdx) != len(pcH.compIdx) {
			t.Fatalf("PoE %+v: compIdx %d vs %d cells", poe, len(pcS.compIdx), len(pcH.compIdx))
		}
		for j := range pcS.compIdx {
			if pcS.compIdx[j] != pcH.compIdx[j] {
				t.Fatalf("PoE %+v: compIdx[%d] %d vs %d", poe, j, pcS.compIdx[j], pcH.compIdx[j])
			}
		}
		for k := range pcS.shape {
			for j := range pcS.compIdx {
				ws, wh := weight(pcS, k, j), weight(pcH, k, j)
				lim := int64(math.Abs(float64(ws))*1e-6) + 8
				if d := ws - wh; d > lim || d < -lim {
					t.Fatalf("PoE %+v w[%d][%d]: sketch %d vs hier %d", poe, k, j, ws, wh)
				}
			}
		}
	}
}

// TestHierTruncationKeepsExactWeights: shrinking the hierarchical radius
// only drops complement cells — every kept cell's weights are bit-identical
// to the wide-radius characterization, because each Green-table entry is a
// pure function of the network and the elimination order, independent of
// which other entries the sparsity materializes.
func TestHierTruncationKeepsExactWeights(t *testing.T) {
	cfgWide := sizedConfig(16, 16)
	cfgWide.Characterization = CharHier
	cfgWide.TruncationRadius = 12
	cfgNarrow := sizedConfig(16, 16)
	cfgNarrow.Characterization = CharHier
	cfgNarrow.TruncationRadius = 4
	poe := Cell{Row: 8, Col: 8}
	_, pcW := calFor(t, cfgWide, poe)
	_, pcN := calFor(t, cfgNarrow, poe)
	if len(pcN.compIdx) >= len(pcW.compIdx) {
		t.Fatalf("radius 4 did not truncate: %d vs %d complement cells", len(pcN.compIdx), len(pcW.compIdx))
	}
	for j, m := range pcN.compIdx {
		if chebDist(cfgNarrow.CellAt(int(m)), poe) > 4 {
			t.Fatalf("kept cell %d outside the radius cap", m)
		}
		jw := slices.Index(pcW.compIdx, m)
		if jw < 0 {
			t.Fatalf("kept cell %d missing from wide sweep", m)
		}
		for k := range pcN.shape {
			if weight(pcN, k, j) != weight(pcW, k, jw) {
				t.Fatalf("cell %d shape %d: narrow %d vs wide %d", m, k, weight(pcN, k, j), weight(pcW, k, jw))
			}
		}
	}
}

// hierSketchFor builds just the shared device sketch (no per-PoE sweeps)
// for a CharHier config.
func hierSketchFor(t *testing.T, cfg Config) *circuit.ProbeSketch {
	t.Helper()
	x, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := Calibrate(x)
	sk, _, err := c.sketch()
	if err != nil {
		t.Fatal(err)
	}
	if sk.Backend() != circuit.SketchHier {
		t.Fatalf("expected hierarchical backend, got %v", sk.Backend())
	}
	return sk
}

// TestHierTableMemoryAccounting pins the tentpole's memory claim: Green-
// table bytes grow with TruncationRadius at fixed device size, and at fixed
// radius they grow roughly linearly with cell count — not quadratically
// like the dense np^2 tables.
func TestHierTableMemoryAccounting(t *testing.T) {
	bytesAt := func(rows, cols, radius int) int64 {
		cfg := sizedConfig(rows, cols)
		cfg.Characterization = CharHier
		cfg.TruncationRadius = radius
		return hierSketchFor(t, cfg).TableBytes()
	}
	b2 := bytesAt(16, 16, 2)
	b4 := bytesAt(16, 16, 4)
	b8 := bytesAt(16, 16, 8)
	if !(b2 < b4 && b4 < b8) {
		t.Fatalf("table bytes not monotone in radius: %d, %d, %d", b2, b4, b8)
	}
	// 16x16 -> 32x32 quadruples the cells. Dense tables grow ~16x (np^2);
	// the truncated tables must stay well under 8x (boundary clipping makes
	// the growth slightly superlinear, ~4-5x).
	small := bytesAt(16, 16, 3)
	large := bytesAt(32, 32, 3)
	if large >= 8*small {
		t.Fatalf("radius-3 table bytes grew %dx (%d -> %d) across 4x cells — not neighbourhood-bound",
			large/small, small, large)
	}
}

// TestHierPulseRoundTrip: end-to-end SPE invertibility through the
// hierarchical path — a pulse train applied through a CharHier calibration
// must be exactly undone by the inverse classes in reverse order.
func TestHierPulseRoundTrip(t *testing.T) {
	cfg := sizedConfig(16, 16)
	cfg.Characterization = CharHier
	x, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	levels := make([]int, cfg.Cells())
	for i := range levels {
		levels[i] = rng.Intn(device.Levels)
	}
	if err := x.SetLevels(levels); err != nil {
		t.Fatal(err)
	}
	cal := Calibrate(x)
	type step struct {
		poe   Cell
		class int
	}
	steps := make([]step, 24)
	for i := range steps {
		steps[i] = step{
			poe:   Cell{Row: rng.Intn(cfg.Rows), Col: rng.Intn(cfg.Cols)},
			class: rng.Intn(device.NumWidths),
		}
		if err := x.ApplyPulse(cal, steps[i].poe, steps[i].class); err != nil {
			t.Fatal(err)
		}
	}
	changed := false
	for i, l := range x.Levels() {
		if l != levels[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("pulse train left the array unchanged — test is vacuous")
	}
	for i := len(steps) - 1; i >= 0; i-- {
		if err := x.ApplyPulse(cal, steps[i].poe, InverseClass(steps[i].class)); err != nil {
			t.Fatal(err)
		}
	}
	for i, l := range x.Levels() {
		if l != levels[i] {
			t.Fatalf("cell %d: level %d after undo, want %d", i, l, levels[i])
		}
	}
}

// TestCharHierValidation: CharHier is incompatible with voltage-threshold
// shapes (no analytic truncation footprint).
func TestCharHierValidation(t *testing.T) {
	cfg := sizedConfig(8, 8)
	cfg.Characterization = CharHier
	cfg.Shape = ShapeVoltage
	if err := cfg.Validate(); err == nil {
		t.Fatal("CharHier+ShapeVoltage validated")
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("CharHier+ShapeVoltage crossbar built")
	}
}

// TestHierSparsityWellFormed: the generated sparsity rows are strictly
// ascending, self-inclusive and symmetric — the invariants the circuit
// layer validates — and the window is always contained in them.
func TestHierSparsityWellFormed(t *testing.T) {
	cfg := sizedConfig(12, 9)
	cfg.Characterization = CharHier
	cfg.TruncationRadius = 3
	x, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := Calibrate(x)
	sp := c.buildHierSparsity()
	inRow := func(row []int32, v int32) bool {
		k := sort.Search(len(row), func(i int) bool { return row[i] >= v })
		return k < len(row) && row[k] == v
	}
	for i, row := range sp.PairRows {
		for x := 1; x < len(row); x++ {
			if row[x] <= row[x-1] {
				t.Fatalf("pair row %d not ascending", i)
			}
		}
		if !inRow(row, int32(i)) {
			t.Fatalf("pair row %d misses its diagonal", i)
		}
		for _, j := range row {
			if !inRow(sp.PairRows[j], int32(i)) {
				t.Fatalf("pair sparsity asymmetric at (%d,%d)", i, j)
			}
		}
	}
	// Every sweep query of every PoE must be inside the pattern.
	for pi := 0; pi < cfg.Cells(); pi++ {
		poe := cfg.CellAt(pi)
		shape := cfg.PaperShape(poe)
		inShape := make([]bool, cfg.Cells())
		for _, cell := range shape {
			inShape[cfg.Index(cell)] = true
		}
		window, _ := hierWindow(&hierScratch{}, cfg, poe, inShape, c.hierTruncRadius())
		for _, m := range window {
			// PinWindow materializes C for every window pair; W is only read
			// for swept (non-shape) cells — Quad(shape, m) and Quad(m, m).
			if !inRow(sp.SingleRows[poe.Row], m) || !inRow(sp.SingleRows[cfg.Rows+poe.Col], m) {
				t.Fatalf("PoE %+v: C[.][%d] outside sparsity", poe, m)
			}
			if inShape[m] {
				continue
			}
			if !inRow(sp.PairRows[m], m) {
				t.Fatalf("PoE %+v: window cell %d missing its W diagonal", poe, m)
			}
			for _, cell := range shape {
				if !inRow(sp.PairRows[cfg.Index(cell)], m) {
					t.Fatalf("PoE %+v: W[shape %v][%d] outside sparsity", poe, cell, m)
				}
			}
		}
	}
}
