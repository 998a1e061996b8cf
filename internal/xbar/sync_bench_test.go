package xbar

import (
	"fmt"
	"math/rand"
	"testing"

	"snvmm/internal/device"
)

// BenchmarkDeviationSync times the fixed-point deviation-sum rung on its
// own: one op is one dense sum of a PoE's deviations (poeCal.dense), the
// work of every pulse a train derives. Set-up runs the forward trains of
// four blocks of data through ApplyPulse and records the crossbar's levels
// before every pulse; the timed loop sums the pulsed PoE at those levels,
// so each op sees exactly the state the pulse path would.
func BenchmarkDeviationSync(b *testing.B) {
	for _, size := range []int{8, 16} {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			benchSync(b, size)
		})
	}
}

// syncStep is one recorded pulse: the PoE and the packed levels it saw.
type syncStep struct {
	pc     *poeCal
	packed []uint64
}

func benchSync(b *testing.B, size int) {
	x, err := New(sizedConfig(size, size))
	if err != nil {
		b.Fatal(err)
	}
	cal := Calibrate(x)
	poes := benchLattice(size)
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, x.BlockBytes())
	classes := make([]int, len(poes))
	for k := range classes {
		classes[k] = rng.Intn(device.NumPulses)
	}
	var steps []syncStep
	maxS := 0
	for cycle := 0; cycle < 4; cycle++ {
		rng.Read(data)
		if err := x.WriteBlock(data); err != nil {
			b.Fatal(err)
		}
		for k, poe := range poes {
			if err := cal.ensure(poe); err != nil {
				b.Fatal(err)
			}
			pc := &cal.poes[cal.poeIndex(poe)]
			steps = append(steps, syncStep{pc, append([]uint64(nil), x.packed...)})
			maxS = max(maxS, len(pc.shape))
			if err := x.ApplyPulse(cal, poe, classes[k]); err != nil {
				b.Fatal(err)
			}
		}
	}
	sums := make([]int64, maxS)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &steps[i%len(steps)]
		s.pc.dense(sums[:len(s.pc.shape)], s.packed)
	}
}

// benchLattice returns a lattice of PoEs at the paper device's density: 16
// on 8x8, 36 on 16x16.
func benchLattice(size int) []Cell {
	stride := 2 + size/16
	var poes []Cell
	for r := 0; r < size; r += stride {
		for c := 0; c < size; c += stride {
			poes = append(poes, Cell{Row: r, Col: c})
		}
	}
	return poes
}

// BenchmarkTrain times the pulse-train rung, Crossbar.Train, in the two
// patterns the SPECU produces, and reports the cost per pulse
// (ns/pulse) beside the cost per op. readthrough is the Parallel read: one
// op is the inverse train of one ciphertext, which reuses the forward
// train's permutation indices, and the forward train after it, which
// restores the ciphertext without pulsing — 2·n pulses for n PoEs.
// overwrite is a WriteBlock of fresh data followed by the forward train,
// each crossbar cycling over four blocks of data, so every pulse sums its
// deviations densely: one op is n pulses, with the WriteBlock timed in it.
// Ops cycle a pool of trainPool crossbars, each with its own PoE order and
// pulse classes, as a SPECU's blocks have: replaying one σ every op would
// let the branch predictor learn it, hiding costs that depend on σ.
func BenchmarkTrain(b *testing.B) {
	for _, mode := range []string{"readthrough", "overwrite"} {
		for _, size := range []int{8, 16} {
			b.Run(fmt.Sprintf("%s/%dx%d", mode, size, size), func(b *testing.B) {
				benchTrain(b, size, mode == "overwrite")
			})
		}
	}
}

// trainPool is the number of crossbars BenchmarkTrain cycles through.
const trainPool = 16

func benchTrain(b *testing.B, size int, overwrite bool) {
	type trainee struct {
		x       *Crossbar
		order   []int
		classes []int
	}
	pool := make([]trainee, trainPool)
	for k := range pool {
		x, err := New(sizedConfig(size, size))
		if err != nil {
			b.Fatal(err)
		}
		pool[k].x = x
	}
	cal := Calibrate(pool[0].x)
	poes := benchLattice(size)
	rng := rand.New(rand.NewSource(5))
	blocks := make([][]byte, 4)
	for i := range blocks {
		blocks[i] = make([]byte, pool[0].x.BlockBytes())
		rng.Read(blocks[i])
	}
	for k := range pool {
		pool[k].order, pool[k].classes = rng.Perm(len(poes)), make([]int, len(poes))
		for j := range pool[k].classes {
			pool[k].classes[j] = rng.Intn(device.NumPulses)
		}
	}
	run := func(t trainee, inverse bool) {
		if _, err := t.x.Train(cal, poes, t.order, t.classes, inverse); err != nil {
			b.Fatal(err)
		}
	}
	for k, t := range pool {
		if err := t.x.WriteBlock(blocks[k%len(blocks)]); err != nil {
			b.Fatal(err)
		}
		run(t, false)
	}
	op := func(i int) {
		k, round := i%trainPool, i/trainPool
		t := pool[k]
		if !overwrite {
			run(t, true)
			run(t, false)
			return
		}
		// Round r writes block k+r+1: never the data the crossbar holds.
		if err := t.x.WriteBlock(blocks[(k+round+1)%len(blocks)]); err != nil {
			b.Fatal(err)
		}
		run(t, false)
	}
	// Warm every PoE's calibration record and every crossbar's train record.
	for i := 0; i < 2*len(blocks)*trainPool; i++ {
		op(i)
	}
	pulses := len(poes)
	if !overwrite {
		pulses *= 2
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pulses), "ns/pulse")
}
