package xbar

import (
	"math/rand"
	"sync"
	"testing"

	"snvmm/internal/device"
)

// trainOps counts what a runTrainOps history reached.
type trainOps struct {
	hits, restores, writeVoids int
}

// fuzzPoEs and fuzzSchedules are the train fuzzer's PoEs and its pool of
// schedules: few enough that random ops repeat a schedule in both
// directions, so trains hit and restore. The third and fourth repeat PoEs,
// and the last differs from the first in one class only.
var (
	fuzzPoEs      = []Cell{{0, 0}, {2, 4}, {5, 1}, {7, 7}, {3, 3}, {6, 2}}
	fuzzSchedules = []schedule{
		{[]int{0, 1, 2, 3, 4, 5}, []int{3, 17, 8, 30, 12, 1}},
		{[]int{5, 3, 1}, []int{20, 4, 9}},
		{[]int{2, 2, 0, 4, 2}, []int{6, 22, 14, 31, 0}},
		{[]int{4, 0, 4, 1}, []int{11, 27, 2, 16}},
		{[]int{0, 1, 2, 3, 4, 5}, []int{3, 17, 8, 30, 12, 2}},
	}
)

// runTrainOps decodes ops into a history on an 8x8 crossbar, three bytes
// per op: forward and inverse trains drawn from fuzzSchedules, WriteBlock
// of the data the crossbar holds or of new data, SetLevels of the levels
// it holds or of new ones, and single ApplyPulse calls. A twin crossbar
// runs the same pulses through ApplyPulse, which derives every pulse
// afresh, and takes the same writes. After every op the levels and the
// per-cell wear of both must agree, the levels must equal a per-cell
// model, and the train record must be sound (checkTracker).
func runTrainOps(t testing.TB, ops []byte) trainOps {
	x, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	y, err := New(x.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := CalibrationFor(x)
	if err != nil {
		t.Fatal(err)
	}
	m := make(cellModel, x.Cfg.Cells())
	var got trainOps
	for n := 0; len(ops) >= 3 && n < 200; n++ {
		op, a, b := ops[0], ops[1], ops[2]
		ops = ops[3:]
		live := x.rec.cal != nil
		switch op % 8 {
		case 4:
			poe, class := x.Cfg.CellAt(int(a)%x.Cfg.Cells()), int(b)%device.NumPulses
			applyPulse(t, x, cal, m, poe, class)
			if err := y.ApplyPulse(cal, poe, class); err != nil {
				t.Fatal(err)
			}
		case 5:
			data := x.ReadBlock()
			if a&1 == 1 {
				for i := range data {
					data[i] = a*byte(i) ^ b
				}
			}
			writeBlock(t, x, m, data)
			if err := y.WriteBlock(data); err != nil {
				t.Fatal(err)
			}
			if live && x.rec.cal == nil {
				got.writeVoids++
			}
		case 6:
			levels := x.Levels()
			if a&1 == 1 {
				levels = randomLevels(rand.New(rand.NewSource(int64(a)<<8|int64(b))), x.Cfg.Cells())
			}
			setLevels(t, x, m, levels)
			if err := y.SetLevels(levels); err != nil {
				t.Fatal(err)
			}
		default:
			sc, inverse := fuzzSchedules[int(a)%len(fuzzSchedules)], b&1 == 1
			if x.rec.matches(cal, fuzzPoEs, sc.order, sc.classes, !inverse, len(x.packed)) {
				got.hits++
			}
			if train(t, x, cal, m, fuzzPoEs, sc, inverse) {
				got.restores++
			}
			if err := pulseTrain(y, cal, fuzzPoEs, sc, inverse); err != nil {
				t.Fatal(err)
			}
		}
		if err := twinErr(x, y); err != nil {
			t.Fatalf("op %d (%d %d %d): %v", n, op, a, b, err)
		}
		checkTracker(t, x, cal, m)
	}
	return got
}

// fuzzSeeds are the committed seeds of FuzzTrackerMatchesScratch; see
// TestTrainFuzzSeedsReachEveryCase for what each reaches.
var fuzzSeeds = [][]byte{
	// forward, inverse (a hit), forward (a restore), inverse, forward.
	{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0},
	// forward, WriteBlock of new data (voids the record), inverse (a miss),
	// WriteBlock of the same data, forward (a restore), single pulse.
	{0, 2, 0, 5, 9, 3, 0, 2, 1, 5, 0, 0, 0, 2, 0, 4, 27, 17},
	// a recurring-PoE schedule, SetLevels of the held levels, hit and
	// restore, then SetLevels of new levels and a write.
	{1, 3, 0, 6, 0, 0, 1, 3, 1, 1, 3, 0, 6, 3, 7, 1, 3, 1, 5, 77, 3},
}

// FuzzTrackerMatchesScratch is the train fuzzer: runTrainOps checks every
// train, write and pulse of the decoded history against a memo-free twin
// crossbar and a per-cell model.
func FuzzTrackerMatchesScratch(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		runTrainOps(t, ops)
	})
}

// TestTrainFuzzSeedsReachEveryCase pins what the committed fuzz seeds
// cover: together they reach an inverse train that reuses its forward
// train's indices, a forward train that restores, and a record voided by
// a WriteBlock.
func TestTrainFuzzSeedsReachEveryCase(t *testing.T) {
	var total trainOps
	for _, seed := range fuzzSeeds {
		got := runTrainOps(t, seed)
		total.hits += got.hits
		total.restores += got.restores
		total.writeVoids += got.writeVoids
	}
	if total.hits == 0 || total.restores == 0 || total.writeVoids == 0 {
		t.Errorf("fuzz seeds reach %d hits, %d restores and %d write invalidations; want each", total.hits, total.restores, total.writeVoids)
	}
}

// TestTrainConcurrentFirstTouch races four goroutines, each training its
// own crossbar through one shared cold calibration and first-touching the
// PoEs in a different order. Run under -race it checks that concurrent
// first touch builds each PoE once and that every goroutine's trains stay
// exact: levels against a per-cell model and a sound train record after
// every train.
func TestTrainConcurrentFirstTouch(t *testing.T) {
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
			sc := schedule{rng.Perm(len(poes)), make([]int, len(poes))}
			for s := range sc.classes {
				sc.classes[s] = rng.Intn(device.NumPulses)
			}
			for round := 0; round < 3; round++ {
				for _, inverse := range []bool{false, true} {
					if _, err := trainErr(x, cal, m, poes, sc, inverse); err != nil {
						errs[g] = err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for _, p := range poes {
		if pc := &cal.poes[cal.poeIndex(p)]; !pc.done.Load() || pc.err != nil {
			t.Fatalf("PoE %+v not built after the trains (err %v)", p, pc.err)
		}
	}
}

// TestInverseTrainReusesPermutations checks the train record on the
// decrypt pattern at 8x8 and 16x16: an inverse train applied right after
// its forward train finds every PoE's complement as its forward pulse did,
// so it must reuse the recorded indices without summing anything (the
// record's scratch stays unallocated). A WriteBlock of new data between
// the trains voids the record, and the inverse train must then sum.
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
			sc := randomSchedule(rng, len(poes), len(poes))
			train(t, x, cal, m, poes, sc, false)
			overwrite := round%2 == 1
			if overwrite {
				rng.Read(data)
				writeBlock(t, x, m, data)
			}
			x.rec.sums = nil
			train(t, x, cal, m, poes, sc, true)
			if summed := x.rec.sums != nil; summed != overwrite {
				t.Fatalf("%dx%d round %d: inverse train (overwrite %v) summed the deviations: %v",
					cfg.Rows, cfg.Cols, round, overwrite, summed)
			}
		}
	}
}

// TestTrackerFootprint checks the train record's size after a full train
// at 8x8, 16x16 and 32x32: one buffer of the W packed words a decrypt
// starts from, 3 bytes per step and the ΣS permutation indices, and a
// sums scratch as long as the largest polyomino — nothing per PoE of the
// calibration besides. The wear table, sized by the crossbar's first
// train, holds one count per PoE of the train and their 16-bit indices,
// n + ceil(n/4) words (160 bytes for the 16 PoEs at 8x8), and no per-cell
// base. A warm train, hit or miss, and a warm ApplyPulse allocate
// nothing.
func TestTrackerFootprint(t *testing.T) {
	for _, size := range []int{8, 16, 32} {
		x, err := New(sizedConfig(size, size))
		if err != nil {
			t.Fatal(err)
		}
		cal := Calibrate(x)
		m := make(cellModel, x.Cfg.Cells())
		data := make([]byte, x.BlockBytes())
		rng := rand.New(rand.NewSource(int64(size)))
		rng.Read(data)
		writeBlock(t, x, m, data)
		poes := benchLattice(size)
		sc := schedule{rng.Perm(len(poes)), make([]int, len(poes))}
		for s := range sc.classes {
			sc.classes[s] = rng.Intn(device.NumPulses)
		}
		train(t, x, cal, m, poes, sc, false)
		sumS, maxS := 0, 0
		for _, poe := range poes {
			s := len(cal.poes[cal.poeIndex(poe)].shape)
			sumS, maxS = sumS+s, max(maxS, s)
		}
		n, w := len(poes), len(x.packed)
		if r := &x.rec; len(r.buf) != 8*w+3*n+sumS || cap(r.buf) != len(r.buf) || len(r.sums) != maxS {
			t.Fatalf("%dx%d: record holds %d (cap %d) bytes and %d sums, want 8·W + 3·n + ΣS = 8·%d + 3·%d + %d = %d and max S = %d",
				size, size, len(r.buf), cap(r.buf), len(r.sums), w, n, sumS, 8*w+3*n+sumS, maxS)
		}
		if tab, want := x.pulses.tab, n+(n+3)/4; len(tab) != want || cap(tab) != want || x.pulses.base != nil {
			t.Fatalf("%dx%d: wear table of %d (cap %d) words, want n + ceil(n/4) = %d and no per-cell base",
				size, size, len(tab), cap(tab), want)
		}
		k := 0
		for name, op := range map[string]func() error{
			"Train round trip (hit, restore)": func() error {
				for _, inverse := range []bool{true, false} {
					if _, err := x.Train(cal, poes, sc.order, sc.classes, inverse); err != nil {
						return err
					}
				}
				return nil
			},
			"Train after a rewrite (miss)": func() error {
				data[0] ^= 0xff
				if err := x.WriteBlock(data); err != nil {
					return err
				}
				_, err := x.Train(cal, poes, sc.order, sc.classes, false)
				return err
			},
			"ApplyPulse": func() error {
				k++
				return x.ApplyPulse(cal, poes[k%len(poes)], k%device.NumPulses)
			},
		} {
			if allocs := testing.AllocsPerRun(20, func() {
				if err := op(); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%dx%d: warm %s allocates %v times, want 0", size, size, name, allocs)
			}
		}
	}
}
