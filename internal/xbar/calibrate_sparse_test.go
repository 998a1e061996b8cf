package xbar

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"snvmm/internal/device"
)

func calFor(t *testing.T, cfg Config, poe Cell) (*Calibration, *poeCal) {
	t.Helper()
	x, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := Calibrate(x)
	if err := c.ensure(poe); err != nil {
		t.Fatal(err)
	}
	return c, &c.poes[cfg.Index(poe)]
}

func sizedConfig(rows, cols int) Config {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = rows, cols
	return cfg
}

// TestSketchMatchesDenseCalibration cross-validates the sketch path against
// the legacy per-PoE dense path at 8x8 and 16x16: same physics through two
// different solver routes. Weights are huge on the fixed-point grid
// (~1e9-1e10 quanta at paper parameters) while the two routes agree to
// ~1e-8 relative, so a tight relative bound is meaningful.
func TestSketchMatchesDenseCalibration(t *testing.T) {
	for _, size := range []struct{ rows, cols int }{{8, 8}, {16, 16}} {
		cfgDense := sizedConfig(size.rows, size.cols)
		cfgDense.Characterization = CharDense
		cfgSparse := sizedConfig(size.rows, size.cols)
		cfgSparse.Characterization = CharSparse
		poes := []Cell{
			{Row: 0, Col: 0},
			{Row: size.rows / 2, Col: size.cols / 2},
			{Row: size.rows - 1, Col: size.cols / 3},
		}
		for _, poe := range poes {
			_, pcD := calFor(t, cfgDense, poe)
			_, pcS := calFor(t, cfgSparse, poe)
			if len(pcD.shape) != len(pcS.shape) {
				t.Fatalf("%dx%d PoE %+v: shape size %d vs %d", size.rows, size.cols, poe, len(pcD.shape), len(pcS.shape))
			}
			for k := range pcD.base {
				if d := math.Abs(pcD.base[k] - pcS.base[k]); d > 1e-9*math.Abs(pcD.base[k])+1e-12 {
					t.Fatalf("%dx%d PoE %+v shape %d: base %g vs %g", size.rows, size.cols, poe, k, pcD.base[k], pcS.base[k])
				}
			}
			if len(pcD.compIdx) != len(pcS.compIdx) {
				t.Fatalf("%dx%d PoE %+v: compIdx %d vs %d cells", size.rows, size.cols, poe, len(pcD.compIdx), len(pcS.compIdx))
			}
			for j := range pcD.compIdx {
				if pcD.compIdx[j] != pcS.compIdx[j] {
					t.Fatalf("%dx%d PoE %+v: compIdx[%d] %d vs %d", size.rows, size.cols, poe, j, pcD.compIdx[j], pcS.compIdx[j])
				}
			}
			for k := range pcD.shape {
				for j := range pcD.compIdx {
					wd, ws := weight(pcD, k, j), weight(pcS, k, j)
					lim := int64(math.Abs(float64(wd))*1e-6) + 8
					if d := wd - ws; d > lim || d < -lim {
						t.Fatalf("%dx%d PoE %+v w[%d][%d]: dense %d vs sketch %d", size.rows, size.cols, poe, k, j, wd, ws)
					}
				}
			}
			// Band edges come from different estimators (sampled tertiles vs
			// CLT) — only sanity-check the sketch's: symmetric and ordered.
			for k, e := range pcS.edges {
				if !(e[0] < e[1]) || e[0] != -e[1] {
					t.Fatalf("%dx%d PoE %+v shape %d: bad CLT edges %v", size.rows, size.cols, poe, k, e)
				}
			}
		}
	}
}

// TestCharAutoSelection pins the mode dispatch: at 8x8 CharAuto must take
// the dense path (golden-vector compatibility — band edges match the legacy
// sampled estimator bit for bit), at 16x16 the sketch path (edges match the
// CLT estimator).
func TestCharAutoSelection(t *testing.T) {
	poe := Cell{Row: 3, Col: 4}

	auto8, pcAuto8 := calFor(t, sizedConfig(8, 8), poe)
	cfgD := sizedConfig(8, 8)
	cfgD.Characterization = CharDense
	_, pcD8 := calFor(t, cfgD, poe)
	if auto8.useSketch() {
		t.Fatal("8x8 CharAuto selected the sketch path")
	}
	for k := range pcAuto8.edges {
		if pcAuto8.edges[k] != pcD8.edges[k] {
			t.Fatalf("8x8 auto vs dense edges differ at %d: %v vs %v", k, pcAuto8.edges[k], pcD8.edges[k])
		}
	}

	auto16, pcAuto16 := calFor(t, sizedConfig(16, 16), poe)
	cfgS := sizedConfig(16, 16)
	cfgS.Characterization = CharSparse
	_, pcS16 := calFor(t, cfgS, poe)
	if !auto16.useSketch() {
		t.Fatal("16x16 CharAuto selected the dense path")
	}
	for k := range pcAuto16.edges {
		if pcAuto16.edges[k] != pcS16.edges[k] {
			t.Fatalf("16x16 auto vs sketch edges differ at %d: %v vs %v", k, pcAuto16.edges[k], pcS16.edges[k])
		}
	}
}

// TestTruncatedDeviationsBitIdentical is the acceptance-criterion test: at
// the default tolerance the truncated sweep must yield deviations that are
// bit-identical to a full (never-stopping) sweep, at 8x8 and 16x16. The
// weights themselves and the complement list must match exactly, and so
// must the int64 deviation accumulators over random data.
func TestTruncatedDeviationsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, size := range []struct{ rows, cols int }{{8, 8}, {16, 16}} {
		cfgTrunc := sizedConfig(size.rows, size.cols)
		cfgTrunc.Characterization = CharSparse // default truncation tolerance
		cfgFull := sizedConfig(size.rows, size.cols)
		cfgFull.Characterization = CharSparse
		cfgFull.TruncationTol = math.SmallestNonzeroFloat64 // never stops early
		poe := Cell{Row: size.rows / 2, Col: 1}
		_, pcT := calFor(t, cfgTrunc, poe)
		_, pcF := calFor(t, cfgFull, poe)
		if len(pcT.compIdx) != len(pcF.compIdx) {
			t.Fatalf("%dx%d: truncated compIdx %d vs full %d", size.rows, size.cols, len(pcT.compIdx), len(pcF.compIdx))
		}
		for k := range pcT.shape {
			for j := range pcT.compIdx {
				if weight(pcT, k, j) != weight(pcF, k, j) {
					t.Fatalf("%dx%d w[%d][%d]: truncated %d vs full %d", size.rows, size.cols, k, j, weight(pcT, k, j), weight(pcF, k, j))
				}
			}
		}
		cells := size.rows * size.cols
		levels := make([]int, cells)
		for trial := 0; trial < 16; trial++ {
			for i := range levels {
				levels[i] = rng.Intn(device.Levels)
			}
			dT := make([]int64, len(pcT.shape))
			dF := make([]int64, len(pcF.shape))
			words := packLevels(levels)
			pcT.dense(dT, words)
			pcF.dense(dF, words)
			for k := range dT {
				if dT[k] != dF[k] {
					t.Fatalf("%dx%d trial %d shape %d: deviation %d vs %d", size.rows, size.cols, trial, k, dT[k], dF[k])
				}
			}
		}
	}
}

// TestTruncationRadiusKeepsExactWeights forces real truncation with a hard
// radius cap and checks that every kept weight still matches the full sweep
// bit for bit — truncation only ever drops cells, it never changes how a
// swept cell is characterized.
func TestTruncationRadiusKeepsExactWeights(t *testing.T) {
	cfgFull := sizedConfig(16, 16)
	cfgFull.Characterization = CharSparse
	cfgCap := sizedConfig(16, 16)
	cfgCap.Characterization = CharSparse
	cfgCap.TruncationRadius = 5
	poe := Cell{Row: 8, Col: 8}
	_, pcF := calFor(t, cfgFull, poe)
	_, pcC := calFor(t, cfgCap, poe)
	if len(pcC.compIdx) >= len(pcF.compIdx) {
		t.Fatalf("radius cap did not truncate: %d vs %d complement cells", len(pcC.compIdx), len(pcF.compIdx))
	}
	for j, m := range pcC.compIdx {
		if chebDist(cfgCap.CellAt(int(m)), poe) > 5 {
			t.Fatalf("kept cell %d outside the radius cap", m)
		}
		jf := slices.Index(pcF.compIdx, m)
		if jf < 0 {
			t.Fatalf("kept cell %d missing from full sweep", m)
		}
		for k := range pcC.shape {
			if weight(pcC, k, j) != weight(pcF, k, jf) {
				t.Fatalf("cell %d shape %d: capped %d vs full %d", m, k, weight(pcC, k, j), weight(pcF, k, jf))
			}
		}
	}
}

// TestTruncationTolMonotonicity is the property test: shrinking
// TruncationTol can only grow the visited neighbourhood. Tolerances are
// chosen around the measured weight scale at 16x16 paper parameters
// (~0.018 V/state interior rings, ~0.003 V at the boundary ring): 1.0 stops
// immediately beyond the polyomino, 0.01 and the subnormal floor sweep
// progressively more.
func TestTruncationTolMonotonicity(t *testing.T) {
	tols := []float64{1.0, 0.01, math.SmallestNonzeroFloat64}
	poe := Cell{Row: 8, Col: 8}
	var prev map[int32]bool
	var prevLen int
	strictGrowth := false
	for i, tol := range tols {
		cfg := sizedConfig(16, 16)
		cfg.Characterization = CharSparse
		cfg.TruncationTol = tol
		_, pc := calFor(t, cfg, poe)
		cur := make(map[int32]bool, len(pc.compIdx))
		for _, m := range pc.compIdx {
			cur[m] = true
		}
		if i > 0 {
			for m := range prev {
				if !cur[m] {
					t.Fatalf("tol %g dropped cell %d that tol %g visited", tol, m, tols[i-1])
				}
			}
			if len(cur) > prevLen {
				strictGrowth = true
			}
		}
		prev, prevLen = cur, len(cur)
	}
	if !strictGrowth {
		t.Fatal("no tolerance in the ladder actually grew the neighbourhood")
	}
}
