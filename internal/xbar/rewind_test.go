package xbar

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"snvmm/internal/device"
)

// TestRewindMatchesInverseTrain checks Rewind against the pulse train it
// stands in for, at 8x8 and 16x16. Two identical crossbars take the same
// random forward pulses; one is then rewound, the other gets the inverse
// pulses in reverse order. Levels and per-cell wear must agree after every
// round, and both trackers must hold their invariant (checkTracker) against
// their per-cell models after every step. Between rounds both crossbars
// sometimes take the same WriteBlock or SetLevels, so Rewinds also land on
// trackers whose PoEs were last synced before a bulk write.
func TestRewindMatchesInverseTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, cfg := range []Config{DefaultConfig(), sizedConfig(16, 16)} {
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cal := Calibrate(a)
		ma, mb := make(cellModel, cfg.Cells()), make(cellModel, cfg.Cells())
		poes := []Cell{{0, 0}, {2, 4}, {5, 1}, {7, 7}, {3, 3}, {6, 2}, {1, 6}, {4, 5}}
		type pulse struct {
			poe   Cell
			class int
		}
		var snap Snapshot
		for round := 0; round < 150; round++ {
			switch rng.Intn(8) {
			case 0:
				data := make([]byte, a.BlockBytes())
				rng.Read(data)
				writeBlock(t, a, ma, data)
				writeBlock(t, b, mb, data)
			case 1:
				levels := randomLevels(rng, cfg.Cells())
				setLevels(t, a, ma, levels)
				setLevels(t, b, mb, levels)
			}
			checkTracker(t, a, cal, ma)
			checkTracker(t, b, cal, mb)
			train := make([]pulse, 1+rng.Intn(12))
			for k := range train {
				train[k] = pulse{poes[rng.Intn(len(poes))], rng.Intn(device.NumPulses)}
			}
			saved := slices.Clone(ma)
			a.Save(&snap)
			for _, p := range train {
				applyPulse(t, a, cal, ma, p.poe, p.class)
				checkTracker(t, a, cal, ma)
				applyPulse(t, b, cal, mb, p.poe, p.class)
				checkTracker(t, b, cal, mb)
			}
			for k := len(train) - 1; k >= 0; k-- {
				applyPulse(t, b, cal, mb, train[k].poe, InverseClass(train[k].class))
				checkTracker(t, b, cal, mb)
			}
			a.Rewind(&snap)
			copy(ma, saved)
			checkTracker(t, a, cal, ma)
			if lv := a.Levels(); !slices.Equal(lv, saved) || !slices.Equal(lv, b.Levels()) {
				t.Fatalf("%dx%d round %d: rewound levels differ from the saved state or the inverse train", cfg.Rows, cfg.Cols, round)
			}
			if !slices.Equal(a.wear, b.wear) {
				t.Fatalf("%dx%d round %d: rewound wear differs from the inverse train's", cfg.Rows, cfg.Cols, round)
			}
		}
		syncAll(t, a, cal)
		syncAll(t, b, cal)
	}
}

// TestInverseTrainFindsNoChanges pins the property the tracker's diff is
// built on: the inverse pulses run in reverse order, so when a PoE's
// inverse pulse fires every cell outside its polyomino holds the level it
// held at that PoE's forward pulse. An inverse train applied right after
// its forward train must therefore find zero changed complement cells at
// every pulse, on fresh data and on data the tracker has seen before.
func TestInverseTrainFindsNoChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, cfg := range []Config{DefaultConfig(), sizedConfig(16, 16)} {
		x, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cal := Calibrate(x)
		m := make(cellModel, cfg.Cells())
		poes := []Cell{{0, 0}, {2, 4}, {5, 1}, {7, 7}, {3, 3}, {6, 2}, {1, 6}, {4, 5}}
		for round := 0; round < 20; round++ {
			if round%4 == 0 {
				data := make([]byte, x.BlockBytes())
				rng.Read(data)
				writeBlock(t, x, m, data)
			}
			order := rng.Perm(len(poes))
			classes := make([]int, len(order))
			for k, p := range order {
				classes[k] = rng.Intn(device.NumPulses)
				applyPulse(t, x, cal, m, poes[p], classes[k])
			}
			for k := len(order) - 1; k >= 0; k-- {
				poe := poes[order[k]]
				pc := &cal.poes[cal.poeIndex(poe)]
				_, words, _, _ := trackedState(x, pc)
				if n := pending(pc, x.packed, words); n != 0 {
					t.Fatalf("%dx%d round %d: inverse pulse at %+v finds %d changed complement cells, want 0",
						cfg.Rows, cfg.Cols, round, poe, n)
				}
				applyPulse(t, x, cal, m, poe, InverseClass(classes[k]))
			}
			checkTracker(t, x, cal, m)
		}
	}
}

// TestAppendBlockMatchesReadBlock checks the append form against ReadBlock
// and that it leaves the caller's prefix untouched.
func TestAppendBlockMatchesReadBlock(t *testing.T) {
	x, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, x.BlockBytes())
	for i := range data {
		data[i] = byte(i*37 + 5)
	}
	if err := x.WriteBlock(data); err != nil {
		t.Fatal(err)
	}
	prefix := []byte{0xde, 0xad}
	got := x.AppendBlock(append([]byte(nil), prefix...))
	if !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], x.ReadBlock()) || !bytes.Equal(got[2:], data) {
		t.Errorf("AppendBlock = %x, want %x followed by %x", got, prefix, data)
	}
}
