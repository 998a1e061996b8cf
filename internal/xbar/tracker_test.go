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
// (checkTracker) against a per-cell model of the levels after every op, and
// every live accumulator against a from-scratch sum at the end.
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
		m := make(cellModel, x.Cfg.Cells())
		var snap Snapshot
		var saved cellModel
		for n := 0; len(ops) >= 3 && n < 200; n++ {
			op, a, b := ops[0], ops[1], ops[2]
			ops = ops[3:]
			switch op % 8 {
			case 5:
				data := make([]byte, x.BlockBytes())
				for i := range data {
					data[i] = a*byte(i) ^ b
				}
				writeBlock(t, x, m, data)
				saved = nil
			case 6:
				rng := rand.New(rand.NewSource(int64(a)<<8 | int64(b)))
				setLevels(t, x, m, randomLevels(rng, x.Cfg.Cells()))
				saved = nil
			case 7:
				if a&1 == 0 {
					x.Save(&snap)
					saved = slices.Clone(m)
				} else if saved != nil {
					x.Rewind(&snap)
					copy(m, saved)
				}
			default:
				applyPulse(t, x, cal, m, x.Cfg.CellAt(int(a)%x.Cfg.Cells()), int(b)%device.NumPulses)
			}
			checkTracker(t, x, cal, m)
		}
		syncAll(t, x, cal)
	})
}

// TestTrackerSlotsConcurrentFirstTouch races four goroutines, each pulsing
// its own crossbar through one shared cold calibration and first-touching
// the PoEs in a different order. Run under -race it checks the slot
// hand-out inside ensure's Once: every built PoE gets a distinct slot, the
// slots are dense (0..n-1 for n built PoEs), the accumulator offsets handed
// out with them tile [0, ΣS) without overlap in slot order, and every
// goroutine's accumulators stay exact.
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
			m := make(cellModel, x.Cfg.Cells())
			data := make([]byte, x.BlockBytes())
			rng.Read(data)
			if err := x.WriteBlock(data); err != nil {
				errs[g] = err
				return
			}
			m.write(data)
			order := rng.Perm(len(poes))
			for round := 0; round < 3; round++ {
				for _, p := range order {
					if err := pulseErr(x, cal, m, poes[p], rng.Intn(device.NumPulses)); err != nil {
						errs[g] = err
						return
					}
					if err := trackerErr(x, cal, m); err != nil {
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
	// Walking the PoEs in slot order, each accumulator range must start
	// where the previous one ended: disjoint, and dense over [0, ΣS).
	bySlot := make([]*poeCal, len(poes))
	for _, p := range poes {
		pc := &cal.poes[cal.poeIndex(p)]
		bySlot[pc.slot] = pc
	}
	end := 0
	for _, pc := range bySlot {
		if pc.accOff != end {
			t.Fatalf("slot %d: accumulator offset %d, want %d (the ΣS of the slots below)", pc.slot, pc.accOff, end)
		}
		end += len(pc.shape)
	}
	if n, accLen := cal.slotsOut(); n != len(poes) || accLen != end {
		t.Fatalf("%d slots and %d accumulator entries handed out for %d PoEs with ΣS = %d", n, accLen, len(poes), end)
	}
}

// TestInverseTrainReusesPermutations checks the permutation memo on the
// decrypt pattern at 8x8 and 16x16: an inverse train applied right after
// its forward train finds every PoE's complement unchanged, so each inverse
// pulse must find its PoE's memo tagged with its own width and its sync
// must leave the tag standing. A WriteBlock between the trains changes the
// complements, and each inverse pulse's sync must then clear the tag.
func TestInverseTrainReusesPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, cfg := range []Config{DefaultConfig(), sizedConfig(16, 16)} {
		x, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cal := Calibrate(x)
		m := make(cellModel, cfg.Cells())
		poes := []Cell{{0, 0}, {2, 4}, {5, 1}, {7, 7}, {3, 3}, {6, 2}, {1, 6}, {4, 5}}
		data := make([]byte, x.BlockBytes())
		for round := 0; round < 8; round++ {
			rng.Read(data)
			writeBlock(t, x, m, data)
			classes := make([]int, len(poes))
			for k, poe := range poes {
				classes[k] = rng.Intn(device.NumPulses)
				applyPulse(t, x, cal, m, poe, classes[k])
			}
			overwrite := round%2 == 1
			if overwrite {
				rng.Read(data)
				writeBlock(t, x, m, data)
			}
			for k := len(poes) - 1; k >= 0; k-- {
				pc := &cal.poes[cal.poeIndex(poes[k])]
				want := memoTouched | uint8(classes[k]%device.NumWidths+1)
				if _, _, tag, _ := trackedState(x, pc); tag != want {
					t.Fatalf("%dx%d round %d: memo tag %#x at %+v before its inverse pulse, want %#x",
						cfg.Rows, cfg.Cols, round, poes[k], tag, want)
				}
				x.trk.sync(pc, x)
				_, _, tag, _ := trackedState(x, pc)
				if !overwrite && tag != want {
					t.Fatalf("%dx%d round %d: inverse pulse at %+v: sync left memo tag %#x, want %#x (reuse)",
						cfg.Rows, cfg.Cols, round, poes[k], tag, want)
				}
				if overwrite && tag != memoTouched {
					t.Fatalf("%dx%d round %d: inverse pulse at %+v after a WriteBlock: sync left memo tag %#x, want %#x (invalidated)",
						cfg.Rows, cfg.Cols, round, poes[k], tag, memoTouched)
				}
				applyPulse(t, x, cal, m, poes[k], InverseClass(classes[k]))
			}
			checkTracker(t, x, cal, m)
		}
	}
}

// TestTrackerFootprint checks the slab sizes after a full pulse train at
// 8x8 and 16x16 — ΣS accumulator entries, nslots·W packed words and
// ΣS+nslots memo bytes over the built PoEs, nothing per PoE besides — and
// that a warm pulse allocates nothing.
func TestTrackerFootprint(t *testing.T) {
	for _, size := range []int{8, 16} {
		x, err := New(sizedConfig(size, size))
		if err != nil {
			t.Fatal(err)
		}
		cal := Calibrate(x)
		m := make(cellModel, x.Cfg.Cells())
		data := make([]byte, x.BlockBytes())
		rand.New(rand.NewSource(int64(size))).Read(data)
		writeBlock(t, x, m, data)
		var poes []Cell
		for i := 0; i < x.Cfg.Cells(); i += 5 {
			poes = append(poes, x.Cfg.CellAt(i))
		}
		for k, poe := range poes {
			applyPulse(t, x, cal, m, poe, k%device.NumPulses)
		}
		sumS := 0
		for _, poe := range poes {
			sumS += len(cal.poes[cal.poeIndex(poe)].shape)
		}
		n, w := len(poes), len(x.packed)
		trk := x.trk
		if len(trk.acc) != sumS || len(trk.words) != n*w || len(trk.memo) != sumS+n {
			t.Fatalf("%dx%d: slabs hold %d/%d/%d entries, want ΣS=%d, nslots·W=%d, ΣS+nslots=%d",
				size, size, len(trk.acc), len(trk.words), len(trk.memo), sumS, n*w, sumS+n)
		}
		k := 0
		allocs := testing.AllocsPerRun(200, func() {
			if err := x.ApplyPulse(cal, poes[k%len(poes)], k%device.NumPulses); err != nil {
				t.Fatal(err)
			}
			k++
		})
		if allocs != 0 {
			t.Errorf("%dx%d: warm ApplyPulse allocates %v times, want 0", size, size, allocs)
		}
	}
}
