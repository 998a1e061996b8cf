package xbar

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"snvmm/internal/device"
)

// TestIncrementalDeviationsMatchScratch drives a long random pulse sequence
// and, after every pulse, checks that the journal-replay accumulator of
// every touched PoE agrees bit-for-bit with a from-scratch recompute.
// Decryption correctness rests on this exactness: if replay and scratch
// could disagree in even one ULP, the mixer words — and therefore the level
// permutations — would diverge between encrypt and decrypt.
func TestIncrementalDeviationsMatchScratch(t *testing.T) {
	xb, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cal := Calibrate(xb)
	rng := rand.New(rand.NewSource(7))
	poes := []Cell{{0, 0}, {2, 4}, {5, 1}, {7, 7}, {3, 3}, {6, 2}}
	levels := make([]int, xb.Cfg.Cells())
	for i := range levels {
		levels[i] = rng.Intn(device.Levels)
	}
	if err := xb.SetLevels(levels); err != nil {
		t.Fatal(err)
	}
	scratch := make([]int64, xb.Cfg.Cells())
	// Enough pulses to cross the journal-compaction boundary several times.
	for step := 0; step < 400; step++ {
		poe := poes[rng.Intn(len(poes))]
		if err := xb.ApplyPulse(cal, poe, rng.Intn(device.NumPulses)); err != nil {
			t.Fatal(err)
		}
		trk := xb.trk
		if trk == nil {
			t.Fatal("ApplyPulse left no tracker")
		}
		for _, p := range poes {
			pi := cal.cfg.Index(p)
			pc := &cal.poes[pi]
			if trk.acc[pi] == nil {
				continue // never pulsed yet
			}
			acc := trk.sync(pi, pc, xb.levels)
			pc.deviationsInto(scratch[:len(pc.shape)], xb.levels, nil)
			ref := deviationsRef(pc, xb.levels)
			for k := range acc {
				if acc[k] != scratch[k] || scratch[k] != ref[k] {
					t.Fatalf("step %d PoE %+v cell %d: incremental %d, scratch %d, reference %d",
						step, p, k, acc[k], scratch[k], ref[k])
				}
			}
		}
	}

	// The gathered scratch kernel against the reference double loop, for
	// every PoE of the paper's 8x8 device and of a 16x16 sketch
	// calibration, with random levels. One gather buffer is reused across
	// PoEs of different complement sizes, as a crossbar's tracker reuses it.
	for _, cfg := range []Config{DefaultConfig(), sizedConfig(16, 16)} {
		x, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := Calibrate(x)
		if err := c.WarmAll(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		lv := make([]int, cfg.Cells())
		var q []int64
		for pi := range c.poes {
			pc := &c.poes[pi]
			for trial := 0; trial < 4; trial++ {
				for i := range lv {
					lv[i] = rng.Intn(device.Levels)
				}
				got := make([]int64, len(pc.shape))
				q = pc.deviationsInto(got, lv, q)
				ref := deviationsRef(pc, lv)
				for k := range got {
					if got[k] != ref[k] {
						t.Fatalf("%dx%d PoE %d shape cell %d: gathered kernel %d != reference %d",
							cfg.Rows, cfg.Cols, pi, k, got[k], ref[k])
					}
				}
			}
		}
	}
}

// deviationsRef is the reference scratch kernel: the plain double loop over
// shape cells and complement cells, converting each complement level where
// it is used.
func deviationsRef(pc *poeCal, levels []int) []int64 {
	out := make([]int64, len(pc.wflat))
	for k, row := range pc.wflat {
		var d int64
		for j, m := range pc.compIdx {
			d += row[j] * levelQ(levels[m])
		}
		out[k] = d
	}
	return out
}

// TestPulseRoundTripWithSharedCalibration checks that a pulse sequence
// applied through a process-shared calibration decrypts exactly, on a
// crossbar whose fabrication seed differs from the cache's reference.
func TestPulseRoundTripWithSharedCalibration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 913
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := CalibrationFor(xb)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, xb.BlockBytes())
	for i := range data {
		data[i] = byte(i*41 + 3)
	}
	if err := xb.WriteBlock(data); err != nil {
		t.Fatal(err)
	}
	poes := []Cell{{1, 1}, {4, 6}, {6, 0}, {2, 2}}
	classes := []int{3, 17, 9, 30, 12, 5, 24, 1}
	for s, c := range classes {
		if err := xb.ApplyPulse(cal, poes[s%len(poes)], c); err != nil {
			t.Fatal(err)
		}
	}
	for s := len(classes) - 1; s >= 0; s-- {
		if err := xb.ApplyPulse(cal, poes[s%len(poes)], InverseClass(classes[s])); err != nil {
			t.Fatal(err)
		}
	}
	got := xb.ReadBlock()
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("round trip broke at byte %d: %02x != %02x", i, got[i], data[i])
		}
	}
}

// TestCalibrationForSharing pins the cache contract: unvaried crossbars
// share one calibration per fabrication identity regardless of seed, varied
// crossbars get private ones.
func TestCalibrationForSharing(t *testing.T) {
	a, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfgB := DefaultConfig()
	cfgB.Seed = 999
	b, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	calA, err := CalibrationFor(a)
	if err != nil {
		t.Fatal(err)
	}
	calB, err := CalibrationFor(b)
	if err != nil {
		t.Fatal(err)
	}
	if calA != calB {
		t.Error("unvaried crossbars with different seeds should share a calibration")
	}
	cfgV := DefaultConfig()
	cfgV.VarFrac = 0.05
	v1, err := New(cfgV)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := New(cfgV)
	if err != nil {
		t.Fatal(err)
	}
	calV1, err := CalibrationFor(v1)
	if err != nil {
		t.Fatal(err)
	}
	calV2, err := CalibrationFor(v2)
	if err != nil {
		t.Fatal(err)
	}
	if calV1 == calV2 {
		t.Error("varied crossbars must not share calibrations")
	}
}

// TestUnvariedCrossbarsShareParams pins the parameter sharing: unvaried
// crossbars of one geometry and device hold the same read-only slice
// whatever their seed, with the nominal device in every cell; varied
// crossbars keep private per-cell parameters.
func TestUnvariedCrossbarsShareParams(t *testing.T) {
	cfgA, cfgB := DefaultConfig(), DefaultConfig()
	cfgB.Seed = 31
	a, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if &a.params[0] != &b.params[0] {
		t.Error("unvaried crossbars with different seeds do not share parameters")
	}
	for i, p := range a.params {
		if p != cfgA.Device {
			t.Fatalf("cell %d: shared parameters %+v, want the nominal device", i, p)
		}
	}
	cfgV := DefaultConfig()
	cfgV.VarFrac = 0.05
	v1, err := New(cfgV)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := New(cfgV)
	if err != nil {
		t.Fatal(err)
	}
	if &v1.params[0] == &v2.params[0] || &v1.params[0] == &a.params[0] {
		t.Error("varied crossbars must hold private parameters")
	}
	if v1.params[0] == cfgV.Device {
		t.Error("varied crossbar holds the nominal device")
	}
}

// TestConcurrentCalibrationFirstTouch hammers one shared calibration from
// many goroutines whose first pulses race on the same uncalibrated PoEs.
// The per-PoE singleflight must give every worker the same answer with no
// data race (run under -race) and no duplicate characterization visible as
// divergent state.
func TestConcurrentCalibrationFirstTouch(t *testing.T) {
	// A config field nudge gives this test its own cold cache entry even
	// when other tests have already populated the default identity.
	cfg := DefaultConfig()
	cfg.RKeeper += 1
	const workers = 8
	data := make([]byte, 16)
	for i := range data {
		data[i] = byte(i * 7)
	}
	poes := []Cell{{0, 3}, {5, 5}, {7, 0}, {3, 6}}
	classes := []int{2, 21, 14, 6}
	results := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := cfg
			c.Seed = int64(w + 1)
			xb, err := New(c)
			if err != nil {
				t.Error(err)
				return
			}
			cal, err := CalibrationFor(xb)
			if err != nil {
				t.Error(err)
				return
			}
			if err := xb.WriteBlock(data); err != nil {
				t.Error(err)
				return
			}
			for s, cl := range classes {
				if err := xb.ApplyPulse(cal, poes[s], cl); err != nil {
					t.Error(err)
					return
				}
			}
			results[w] = xb.ReadBlock()
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if results[w] == nil || results[0] == nil {
			t.Fatal("missing worker result")
		}
		for i := range results[0] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d diverged at byte %d", w, i)
			}
		}
	}
}

// TestTransientPulseConcurrent guards the drive-amplitude race fix:
// TransientPulse is now read-only on the crossbar (the amplitude is threaded
// through explicitly instead of written into Cfg.VDrive and restored), so
// concurrent transient sweeps of one crossbar at different amplitudes must
// be race-free (run under -race) and give each caller its own amplitude.
func TestTransientPulseConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	amps := []float64{1.6, 2.0, 2.4, 2.8}
	maxV := make([]float64, len(amps))
	var wg sync.WaitGroup
	for i, v := range amps {
		wg.Add(1)
		go func(i int, v float64) {
			defer wg.Done()
			res, err := xb.TransientPulse(Cell{1, 2}, v, 1e-9, 20)
			if err != nil {
				t.Error(err)
				return
			}
			for _, av := range res.MaxVoltage {
				if av > maxV[i] {
					maxV[i] = av
				}
			}
		}(i, v)
	}
	wg.Wait()
	for i := 1; i < len(amps); i++ {
		if maxV[i] <= maxV[i-1] {
			t.Errorf("amplitude %g saw peak %g, not above %g at amplitude %g — drive leaked between calls",
				amps[i], maxV[i], maxV[i-1], amps[i-1])
		}
	}
}
