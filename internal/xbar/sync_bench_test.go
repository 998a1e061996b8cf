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
// cycling over four blocks of data, so every pulse sums its deviations
// densely: one op is n pulses, with the WriteBlock timed in it.
func BenchmarkTrain(b *testing.B) {
	for _, mode := range []string{"readthrough", "overwrite"} {
		for _, size := range []int{8, 16} {
			b.Run(fmt.Sprintf("%s/%dx%d", mode, size, size), func(b *testing.B) {
				benchTrain(b, size, mode == "overwrite")
			})
		}
	}
}

func benchTrain(b *testing.B, size int, overwrite bool) {
	x, err := New(sizedConfig(size, size))
	if err != nil {
		b.Fatal(err)
	}
	cal := Calibrate(x)
	poes := benchLattice(size)
	rng := rand.New(rand.NewSource(5))
	blocks := make([][]byte, 4)
	for i := range blocks {
		blocks[i] = make([]byte, x.BlockBytes())
		rng.Read(blocks[i])
	}
	order, classes := rng.Perm(len(poes)), make([]int, len(poes))
	for k := range classes {
		classes[k] = rng.Intn(device.NumPulses)
	}
	run := func(inverse bool) {
		if _, err := x.Train(cal, poes, order, classes, inverse); err != nil {
			b.Fatal(err)
		}
	}
	if err := x.WriteBlock(blocks[0]); err != nil {
		b.Fatal(err)
	}
	run(false)
	op := func(i int) {
		if !overwrite {
			run(true)
			run(false)
			return
		}
		if err := x.WriteBlock(blocks[i%len(blocks)]); err != nil {
			b.Fatal(err)
		}
		run(false)
	}
	// Warm every PoE's calibration record and the crossbar's train record.
	for i := 0; i < 2*len(blocks); i++ {
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
