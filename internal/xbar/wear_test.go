package xbar

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// wearModel is the tests' per-cell wear model: one count per cell, which
// each op charges by its definition — a block write every cell once, a
// pulse every cell of its PoE's calibrated shape once — and not through
// the crossbar's PoE counts.
type wearModel []uint64

// write models the wear of WriteBlock.
func (w wearModel) write() {
	for i := range w {
		w[i]++
	}
}

// pulse models the wear of one pulse at poe under cal.
func (w wearModel) pulse(cal *Calibration, poe Cell) {
	for _, i := range cal.poes[cal.poeIndex(poe)].shapeIdx {
		w[i]++
	}
}

// train models the wear of a train of sc over poes under cal, in either
// direction: one pulse per step.
func (w wearModel) train(cal *Calibration, poes []Cell, sc schedule) {
	for _, o := range sc.order {
		w.pulse(cal, poes[o])
	}
}

// wearErr reports an error unless x's per-cell wear and its total equal
// the model's.
func wearErr(x *Crossbar, w wearModel) error {
	if got := x.Wear(); !slices.Equal(got, w) {
		return fmt.Errorf("wear %v, per-cell model %v", got, w)
	}
	var total uint64
	for _, v := range w {
		total += v
	}
	if got := x.TotalWear(); got != total {
		return fmt.Errorf("total wear %d, per-cell model %d", got, total)
	}
	return nil
}

// TestWearMatchesPerCellModel runs a seeded history on one crossbar at
// 8x8 and 16x16 and checks Wear and TotalWear after every op against a
// per-cell model: WriteBlock of the data the crossbar holds and of new
// data, SetLevels, single ApplyPulse calls, and forward and inverse trains
// that reuse the recorded indices, restore, or sum afresh. From the middle
// of the history on, ops alternate at random between two calibrations of
// the geometry whose shapes differ (HorizReach 1 and 2), so the PoE
// counts are folded into the per-cell base and rebound many times. The
// history must reach every case.
func TestWearMatchesPerCellModel(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, cfg := range []Config{DefaultConfig(), sizedConfig(16, 16)} {
		x, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wide := cfg
		wide.HorizReach++
		xw, err := New(wide)
		if err != nil {
			t.Fatal(err)
		}
		cals := []*Calibration{Calibrate(x), Calibrate(xw)}
		narrow, err := cals[0].Shape(fuzzPoEs[0])
		if err != nil {
			t.Fatal(err)
		}
		if broad, err := cals[1].Shape(fuzzPoEs[0]); err != nil || slices.Equal(narrow, broad) {
			t.Fatalf("%dx%d: the calibrations give PoE %+v shapes %v and %v (%v); the fold needs them to differ",
				cfg.Rows, cfg.Cols, fuzzPoEs[0], narrow, broad, err)
		}
		m, w := make(cellModel, cfg.Cells()), make(wearModel, cfg.Cells())
		var hits, restores, misses, folds int
		var last schedule
		lastInverse := false
		for n := 0; n < 300; n++ {
			cal := cals[0]
			if n >= 100 {
				cal = cals[rng.Intn(2)]
			}
			var op string
			switch rng.Intn(8) {
			case 0:
				op = "WriteBlock of the held data"
				writeBlock(t, x, m, x.ReadBlock())
				w.write()
			case 1:
				op = "WriteBlock of new data"
				data := make([]byte, x.BlockBytes())
				rng.Read(data)
				writeBlock(t, x, m, data)
				w.write()
			case 2:
				op = "SetLevels"
				setLevels(t, x, m, randomLevels(rng, cfg.Cells()))
			case 3:
				op = "ApplyPulse"
				poe := fuzzPoEs[rng.Intn(len(fuzzPoEs))]
				if x.pulses.cal != nil && x.pulses.cal != cal {
					folds++
				}
				applyPulse(t, x, cal, m, poe, rng.Intn(32))
				w.pulse(cal, poe)
			default:
				sc, inverse := fuzzSchedules[rng.Intn(len(fuzzSchedules))], rng.Intn(2) == 1
				if last.order != nil && rng.Intn(2) == 0 {
					sc, inverse = last, !lastInverse
				}
				if x.pulses.cal != nil && x.pulses.cal != cal {
					folds++
				}
				hit := x.rec.matches(cal, fuzzPoEs, sc.order, sc.classes, !inverse, len(x.packed))
				restored := train(t, x, cal, m, fuzzPoEs, sc, inverse)
				switch {
				case restored:
					restores++
					op = "restoring train"
				case hit:
					hits++
					op = "recorded-index train"
				default:
					misses++
					op = "summing train"
				}
				w.train(cal, fuzzPoEs, sc)
				last, lastInverse = sc, inverse
			}
			if err := wearErr(x, w); err != nil {
				t.Fatalf("%dx%d op %d (%s): %v", cfg.Rows, cfg.Cols, n, op, err)
			}
		}
		if hits == 0 || restores == 0 || misses == 0 || folds == 0 {
			t.Fatalf("%dx%d: history reached %d recorded-index trains, %d restores, %d summing trains, %d folds; want each",
				cfg.Rows, cfg.Cols, hits, restores, misses, folds)
		}
	}
}

// TestWearTableLookup checks the PoE table against a map of counts over
// a seeded stream of charges on a 16x16 crossbar's table, laid out for a
// list of five PoEs: charges by position that find their PoE there,
// charges by a position that holds another PoE or lies past the table,
// and charges by lookup of PoEs in and outside the list, PoE 0 among
// them, until the table has outgrown its five entries to every cell.
// Every live entry must name a distinct PoE, and no PoE may name a free
// entry.
func TestWearTableLookup(t *testing.T) {
	x, err := New(sizedConfig(16, 16))
	if err != nil {
		t.Fatal(err)
	}
	cal := Calibrate(x) // only poeIndex is read: no PoE is built
	poes := []Cell{{0, 0}, {3, 7}, {15, 15}, {8, 1}, {12, 4}}
	var w wearState
	w.bind(cal, poes)
	want := map[int]uint64{}
	rng := rand.New(rand.NewSource(31))
	for n := 0; n < 20000; n++ {
		k := rng.Intn(len(poes) + 2)
		pi := cal.poeIndex(poes[k%len(poes)])
		switch rng.Intn(3) {
		case 0:
			w.chargeAt(k, pi)
		case 1:
			w.chargeAt((k+1)%len(poes), pi)
		default:
			pi = rng.Intn(256)
			w.charge(pi)
		}
		want[pi]++
	}
	got := map[int]uint64{}
	c := w.slots()
	for k := 0; k < c; k++ {
		pi := w.key(c, k)
		if pi == emptyPoE {
			if w.tab[k] != 0 {
				t.Fatalf("free entry %d holds count %d", k, w.tab[k])
			}
			continue
		}
		if _, dup := got[pi]; dup {
			t.Fatalf("PoE %d holds two entries", pi)
		}
		got[pi] = w.tab[k]
	}
	if !maps.Equal(got, want) {
		t.Fatalf("table counts %v, want %v", got, want)
	}
}
