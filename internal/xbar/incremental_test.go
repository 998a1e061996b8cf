package xbar

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"snvmm/internal/device"
)

// TestIncrementalDeviationsMatchScratch drives a long random mix of pulses,
// block writes, SetLevels and Save/Rewind at 8x8 and 16x16 and, after every
// step, checks the tracker invariant (checkTracker): the crossbar's levels
// equal the test's own per-cell model of them, and every memo holds the
// permutation indices of the from-scratch reference sums at the levels it
// was derived at. Every pulse must also have used the indices of the exact
// sums of the levels it found (pulseErr), and every few steps all live
// PoEs are looked up and checked against the current levels too.
// Decryption correctness rests on this exactness: if a reused memo and a
// recompute could disagree, the level permutations would diverge between
// encrypt and decrypt.
func TestIncrementalDeviationsMatchScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range []Config{DefaultConfig(), sizedConfig(16, 16)} {
		xb, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cal := Calibrate(xb)
		m := make(cellModel, cfg.Cells())
		poes := []Cell{{0, 0}, {2, 4}, {5, 1}, {7, 7}, {3, 3}, {6, 2}}
		var snap Snapshot
		var saved cellModel
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(20); {
			case op == 0:
				data := make([]byte, xb.BlockBytes())
				rng.Read(data)
				writeBlock(t, xb, m, data)
				saved = nil
			case op == 1:
				setLevels(t, xb, m, randomLevels(rng, cfg.Cells()))
				saved = nil
			case op == 2:
				xb.Save(&snap)
				saved = slices.Clone(m)
			case op == 3 && saved != nil:
				xb.Rewind(&snap)
				copy(m, saved)
			default:
				applyPulse(t, xb, cal, m, poes[rng.Intn(len(poes))], rng.Intn(device.NumPulses))
			}
			checkTracker(t, xb, cal, m)
			if step%7 == 0 {
				lookupAll(t, xb, cal)
			}
		}
		lookupAll(t, xb, cal)
	}
}

// TestDenseKernelMatchesReference checks the dense kernel (poeCal.dense)
// against the reference double loop, for every PoE of the paper's 8x8
// device, of a 16x16 sketch calibration and of 6x6 and 12x12 devices, on
// seeded random packed states. At 6x6 and 12x12 the cell count is not a
// multiple of 32, so the last packed word is partial, and some PoEs'
// complements are not a multiple of the kernel's four cells per pass, so
// its tail loop runs too. The padding bits of the random
// words are zero, as the crossbar keeps them.
func TestDenseKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, cfg := range []Config{DefaultConfig(), sizedConfig(16, 16), sizedConfig(6, 6), sizedConfig(12, 12)} {
		x, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := Calibrate(x)
		if err := c.WarmAll(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		cells := cfg.Cells()
		words := make([]uint64, (cells+31)/32)
		tails := 0
		for pi := range c.poes {
			pc := &c.poes[pi]
			if len(pc.compIdx)%4 != 0 {
				tails++
			}
			got := make([]int64, len(pc.shape))
			for trial := 0; trial < 4; trial++ {
				for w := range words {
					words[w] = rng.Uint64()
				}
				if r := cells % 32; r != 0 {
					words[len(words)-1] &= 1<<(2*r) - 1
				}
				pc.dense(got, words)
				ref := deviationsRef(pc, unpackLevels(words, cells))
				for k := range got {
					if got[k] != ref[k] {
						t.Fatalf("%dx%d PoE %d shape cell %d: dense kernel %d != reference %d",
							cfg.Rows, cfg.Cols, pi, k, got[k], ref[k])
					}
				}
			}
		}
		if cells%32 != 0 && tails == 0 {
			t.Fatalf("%dx%d: no PoE's complement exercises the kernel's tail loop", cfg.Rows, cfg.Cols)
		}
	}
}

// randomLevels returns n uniformly random cell levels.
func randomLevels(rng *rand.Rand, n int) []int {
	lv := make([]int, n)
	for i := range lv {
		lv[i] = rng.Intn(device.Levels)
	}
	return lv
}

// packLevels is the reference packing: 2 bits per cell, 32 cells per word.
func packLevels(levels []int) []uint64 {
	out := make([]uint64, (len(levels)+31)/32)
	for i, l := range levels {
		out[i/32] |= uint64(l) << (2 * (i % 32))
	}
	return out
}

// unpackLevels inverts packLevels for n cells.
func unpackLevels(words []uint64, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = int(words[i/32] >> (2 * (i % 32)) & 3)
	}
	return out
}

// cellModel is the tests' own model of a crossbar's levels: one int per
// cell, which every op the tests apply updates by its definition and not
// through the crossbar's packed store. A block write decodes each cell's
// bit pair of the data, and a pulse permutes its shape cells under the
// mixers of the reference sums (deviationsRef) at the model's levels. A
// fresh crossbar's model is all zeros, like the crossbar.
type cellModel []int

// write models WriteBlock(data): cell i stores bit pair i%4 of byte i/4.
func (m cellModel) write(data []byte) {
	for i := range m[:4*len(data)] {
		m[i] = device.BitsLevel(data[i/4] >> (2 * (i % 4)) & 3)
	}
}

// pulse models ApplyPulse(cal, poe, class).
func (m cellModel) pulse(cal *Calibration, poe Cell, class int) {
	pi := cal.poeIndex(poe)
	pc := &cal.poes[pi]
	for k, d := range deviationsRef(pc, m) {
		p, i := permIndex(class%device.NumWidths, pc.mixer(pi, k, d), int(pc.shapeIdx[k])), pc.shapeIdx[k]
		if class >= device.NumWidths {
			m[i] = invPerms[p][m[i]]
		} else {
			m[i] = perms[p][m[i]]
		}
	}
}

// writeBlock writes data to x and to its model m.
func writeBlock(t testing.TB, x *Crossbar, m cellModel, data []byte) {
	t.Helper()
	if err := x.WriteBlock(data); err != nil {
		t.Fatal(err)
	}
	m.write(data)
}

// setLevels sets x's levels and its model m's.
func setLevels(t testing.TB, x *Crossbar, m cellModel, levels []int) {
	t.Helper()
	if err := x.SetLevels(levels); err != nil {
		t.Fatal(err)
	}
	copy(m, levels)
}

// livePoEs returns the linear index of every PoE whose memo x's tracker
// holds; its state is trackedState(x, &cal.poes[pi]).
func livePoEs(x *Crossbar, cal *Calibration) []int {
	if x.trk == nil || x.trk.cal != cal {
		return nil
	}
	var pis []int
	for pi := range cal.poes {
		pc := &cal.poes[pi]
		if pc.done.Load() && pc.err == nil && pc.memoOff < len(x.trk.memo) && x.trk.memo[pc.memoOff] != 0 {
			pis = append(pis, pi)
		}
	}
	return pis
}

// trackedState returns the slab entries x's tracker holds for a PoE: the
// packed words its memo was derived at, its memo tag and its memoized
// permutation indices.
func trackedState(x *Crossbar, pc *poeCal) (words []uint64, tag uint8, idx []uint8) {
	t, nw := x.trk, len(x.packed)
	m := t.memo[pc.memoOff : pc.memoOff+1+len(pc.shape)]
	return t.words[pc.slot*nw : (pc.slot+1)*nw], m[0], m[1:]
}

// applyPulse applies one pulse to x and its model m and fails t unless
// pulseErr passes.
func applyPulse(t testing.TB, x *Crossbar, cal *Calibration, m cellModel, poe Cell, class int) {
	t.Helper()
	if err := pulseErr(x, cal, m, poe, class); err != nil {
		t.Fatal(err)
	}
}

// pulseErr applies one pulse to x and to its model m, and checks that the
// pulse left its PoE's memo tagged with its width and holding the
// permutation indices of the reference sums at the levels it found (the
// model's), so a memo reused across a changed complement cell fails even
// though the tracker invariant still holds, and that the memo is sound
// (memoErr).
func pulseErr(x *Crossbar, cal *Calibration, m cellModel, poe Cell, class int) error {
	if err := x.ApplyPulse(cal, poe, class); err != nil {
		return err
	}
	pi := cal.poeIndex(poe)
	pc := &cal.poes[pi]
	width := class % device.NumWidths
	_, tag, idx := trackedState(x, pc)
	if want := refPerms(pc, pi, width, m); !slices.Equal(idx, want) {
		return fmt.Errorf("pulse at %+v used permutation indices %v, reference at the levels it found %v", poe, idx, want)
	}
	m.pulse(cal, poe, class)
	if want := uint8(width + 1); tag != want {
		return fmt.Errorf("pulse at %+v left memo tag %#x, want %#x", poe, tag, want)
	}
	return memoErr(x, pi, pc)
}

// memoErr checks a PoE's memo: when its tag names a width, the memoized
// indices equal permIndex recomputed under that width from the reference
// sums at the packed words the memo was derived at.
func memoErr(x *Crossbar, pi int, pc *poeCal) error {
	words, tag, idx := trackedState(x, pc)
	if tag == 0 {
		return nil
	}
	width := int(tag) - 1
	if want := refPerms(pc, pi, width, unpackLevels(words, x.Cfg.Cells())); !slices.Equal(idx, want) {
		return fmt.Errorf("PoE slot %d width %d: memoized indices %v, recomputed %v", pc.slot, width, idx, want)
	}
	return nil
}

// refPerms returns the permutation index of each shape cell of the PoE
// calibrated by pc (linear index pi) for a pulse of the given width at the
// per-cell levels, from the reference sums.
func refPerms(pc *poeCal, pi, width int, levels []int) []uint8 {
	out := make([]uint8, len(pc.shape))
	for k, d := range deviationsRef(pc, levels) {
		out[k] = uint8(permIndex(width, pc.mixer(pi, k, d), int(pc.shapeIdx[k])))
	}
	return out
}

// checkTracker fails t unless trackerErr finds x's tracker sound.
func checkTracker(t testing.TB, x *Crossbar, cal *Calibration, m cellModel) {
	t.Helper()
	if err := trackerErr(x, cal, m); err != nil {
		t.Fatal(err)
	}
}

// trackerErr checks the tracker invariant without looking anything up:
// x's levels equal its model m and its packed words are the reference
// packing of them (so the padding bits past the last cell are zero), and
// every held memo is sound (memoErr).
func trackerErr(x *Crossbar, cal *Calibration, m cellModel) error {
	if lv := x.Levels(); !slices.Equal(lv, m) {
		return fmt.Errorf("levels %v do not match the per-cell model %v", lv, m)
	}
	if want := packLevels(m); !slices.Equal(x.packed, want) {
		return fmt.Errorf("packed words %x, want %x", x.packed, want)
	}
	for _, pi := range livePoEs(x, cal) {
		if err := memoErr(x, pi, &cal.poes[pi]); err != nil {
			return err
		}
	}
	return nil
}

// lookupAll fails t unless lookupErr finds every live PoE exact.
func lookupAll(t testing.TB, x *Crossbar, cal *Calibration) {
	t.Helper()
	if err := lookupErr(x, cal); err != nil {
		t.Fatal(err)
	}
}

// lookupErr looks up every live PoE's permutation indices at its memo's
// width and x's current levels, and checks each against the reference.
func lookupErr(x *Crossbar, cal *Calibration) error {
	lv := x.Levels()
	for _, pi := range livePoEs(x, cal) {
		pc := &cal.poes[pi]
		_, tag, _ := trackedState(x, pc)
		width := int(tag) - 1
		if got, want := x.trk.perms(pc, pi, width, x), refPerms(pc, pi, width, lv); !slices.Equal(got, want) {
			return fmt.Errorf("PoE slot %d: looked-up indices %v, reference %v", pc.slot, got, want)
		}
	}
	return nil
}

// deviationsRef is the reference scratch kernel: the plain double loop over
// shape cells and complement cells, converting each complement level where
// it is used.
func deviationsRef(pc *poeCal, levels []int) []int64 {
	out := make([]int64, len(pc.shape))
	for k := range out {
		var d int64
		for j, m := range pc.compIdx {
			d += weight(pc, k, j) * levelQ(levels[m])
		}
		out[k] = d
	}
	return out
}

// weight returns the quantized sensitivity of shape cell k of pc to its
// j-th complement cell.
func weight(pc *poeCal, k, j int) int64 { return pc.wT[j*len(pc.shape)+k] }

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
