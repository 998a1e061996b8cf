package xbar

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"snvmm/internal/device"
)

// FuzzTrackerMatchesScratch decodes the input into a mix of pulses, block
// writes, SetLevels and Save/Rewind on an 8x8 crossbar, three bytes per op,
// and checks every pulse's accumulator (pulseErr), the tracker invariant
// (checkTracker) after every op, and every live accumulator against a
// from-scratch sum at the end.
func FuzzTrackerMatchesScratch(f *testing.F) {
	f.Add([]byte{0, 9, 3, 1, 27, 17, 7, 0, 0, 2, 36, 30, 7, 1, 0, 3, 9, 19})
	f.Add([]byte{5, 1, 2, 0, 12, 4, 6, 77, 3, 4, 40, 31, 7, 0, 0, 1, 12, 20, 7, 1, 1, 0, 12, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		x, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		cal, err := CalibrationFor(x)
		if err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		saved := false
		for n := 0; len(ops) >= 3 && n < 200; n++ {
			op, a, b := ops[0], ops[1], ops[2]
			ops = ops[3:]
			switch op % 8 {
			case 5:
				data := make([]byte, x.BlockBytes())
				for i := range data {
					data[i] = a*byte(i) ^ b
				}
				if err := x.WriteBlock(data); err != nil {
					t.Fatal(err)
				}
				saved = false
			case 6:
				rng := rand.New(rand.NewSource(int64(a)<<8 | int64(b)))
				if err := x.SetLevels(randomLevels(rng, x.Cfg.Cells())); err != nil {
					t.Fatal(err)
				}
				saved = false
			case 7:
				if a&1 == 0 {
					x.Save(&snap)
					saved = true
				} else if saved {
					x.Rewind(&snap)
				}
			default:
				applyPulse(t, x, cal, x.Cfg.CellAt(int(a)%x.Cfg.Cells()), int(b)%device.NumPulses)
			}
			checkTracker(t, x, cal)
		}
		syncAll(t, x, cal)
	})
}

// TestTrackerSlotsConcurrentFirstTouch races four goroutines, each pulsing
// its own crossbar through one shared cold calibration and first-touching
// the PoEs in a different order. Run under -race it checks the slot
// hand-out inside ensure's Once: every built PoE gets a distinct slot, the
// slots are dense (0..n-1 for n built PoEs), and every goroutine's
// accumulators stay exact.
func TestTrackerSlotsConcurrentFirstTouch(t *testing.T) {
	ref, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cal := Calibrate(ref)
	var poes []Cell
	for i := 0; i < ref.Cfg.Cells(); i += 5 {
		poes = append(poes, ref.Cfg.CellAt(i))
	}
	const goroutines = 4
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			x, err := New(ref.Cfg)
			if err != nil {
				errs[g] = err
				return
			}
			data := make([]byte, x.BlockBytes())
			rng.Read(data)
			if err := x.WriteBlock(data); err != nil {
				errs[g] = err
				return
			}
			order := rng.Perm(len(poes))
			for round := 0; round < 3; round++ {
				for _, p := range order {
					if err := pulseErr(x, cal, poes[p], rng.Intn(device.NumPulses)); err != nil {
						errs[g] = err
						return
					}
					if err := trackerErr(x, cal); err != nil {
						errs[g] = err
						return
					}
				}
			}
			errs[g] = syncErr(x, cal)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	var slots []int
	for _, p := range poes {
		slots = append(slots, cal.poes[cal.poeIndex(p)].slot)
	}
	slices.Sort(slots)
	for i, s := range slots {
		if s != i {
			t.Fatalf("slots %v are not distinct and dense 0..%d", slots, len(poes)-1)
		}
	}
	if n := int(cal.nslots.Load()); n != len(poes) {
		t.Fatalf("%d slots handed out for %d PoEs", n, len(poes))
	}
}
