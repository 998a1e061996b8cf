package xbar

import (
	"fmt"
	"math/rand"
	"testing"

	"snvmm/internal/device"
)

// BenchmarkDeviationSync times the fixed-point deviation-sum rung on its
// own: one op is one permutation-memo lookup (devTracker.perms). Set-up
// runs the real pulse trains through ApplyPulse and records the crossbar's
// levels before every pulse; the timed loop replays those states into a
// fresh tracker and looks up the pulsed PoE, so each lookup sees exactly
// the levels the pulse path would. readthrough is the Parallel read: the
// inverse train of one ciphertext, repeated (every lookup finds its PoE's
// complement unchanged and reuses the memo). overwrite is a WriteBlock of
// fresh data followed by the forward train, cycling over four blocks of
// data (every lookup finds changed cells and recomputes the dense sums).
func BenchmarkDeviationSync(b *testing.B) {
	for _, mode := range []string{"readthrough", "overwrite"} {
		for _, size := range []int{8, 16} {
			b.Run(fmt.Sprintf("%s/%dx%d", mode, size, size), func(b *testing.B) {
				benchSync(b, size, mode == "overwrite")
			})
		}
	}
}

// syncStep is one recorded pulse: the PoE, its linear index, the pulse
// width and the packed levels it saw.
type syncStep struct {
	pc        *poeCal
	pi, width int
	packed    []uint64
}

func benchSync(b *testing.B, size int, overwrite bool) {
	x, err := New(sizedConfig(size, size))
	if err != nil {
		b.Fatal(err)
	}
	cal := Calibrate(x)
	poes := benchLattice(size)
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, x.BlockBytes())
	rng.Read(data)
	if err := x.WriteBlock(data); err != nil {
		b.Fatal(err)
	}
	var steps []syncStep
	record := func(poe Cell, class int) {
		pi := cal.poeIndex(poe)
		steps = append(steps, syncStep{&cal.poes[pi], pi, class % device.NumWidths, append([]uint64(nil), x.packed...)})
		if err := x.ApplyPulse(cal, poe, class); err != nil {
			b.Fatal(err)
		}
	}
	classes := make([]int, len(poes))
	for k := range classes {
		classes[k] = rng.Intn(device.NumPulses)
	}
	if overwrite {
		for cycle := 0; cycle < 4; cycle++ {
			rng.Read(data)
			if err := x.WriteBlock(data); err != nil {
				b.Fatal(err)
			}
			for k, poe := range poes {
				record(poe, classes[k])
			}
		}
	} else {
		for k, poe := range poes {
			if err := x.ApplyPulse(cal, poe, classes[k]); err != nil {
				b.Fatal(err)
			}
		}
		for k := len(poes) - 1; k >= 0; k-- {
			record(poes[k], InverseClass(classes[k]))
		}
	}
	// The replay crossbar: its tracker is warmed by one pass, so the timed
	// loop sees the steady state.
	y, err := New(x.Cfg)
	if err != nil {
		b.Fatal(err)
	}
	t := y.tracker(cal)
	replay := func(s *syncStep) []uint8 {
		y.packed = s.packed
		return t.perms(s.pc, s.pi, s.width, y)
	}
	for i := range steps {
		replay(&steps[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay(&steps[i%len(steps)])
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

// BenchmarkApplyPulse times the Crossbar.ApplyPulse rung: one op is one
// pulse, memo lookup and level update together. readthrough alternates
// the inverse train of one ciphertext with its forward train, so every
// pulse finds its PoE's complement as the PoE's previous pulse left it
// and reuses that pulse's permutation indices — the steady state
// of the Parallel read, whose Rewind restores each train's start. overwrite
// is a WriteBlock of fresh data followed by the forward train, cycling over
// four blocks of data; the WriteBlock is timed with the train it precedes.
func BenchmarkApplyPulse(b *testing.B) {
	for _, mode := range []string{"readthrough", "overwrite"} {
		for _, size := range []int{8, 16} {
			b.Run(fmt.Sprintf("%s/%dx%d", mode, size, size), func(b *testing.B) {
				benchPulse(b, size, mode == "overwrite")
			})
		}
	}
}

func benchPulse(b *testing.B, size int, overwrite bool) {
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
	classes := make([]int, len(poes))
	for k := range classes {
		classes[k] = rng.Intn(device.NumPulses)
	}
	if err := x.WriteBlock(blocks[0]); err != nil {
		b.Fatal(err)
	}
	// One train is len(poes) pulses; train n of the sequence is a forward
	// train (preceded by a WriteBlock when overwriting) when n is even, an
	// inverse train when it is odd and the mode is readthrough.
	pulse := func(i int) {
		n, k := i/len(poes), i%len(poes)
		switch {
		case overwrite && k == 0:
			if err := x.WriteBlock(blocks[n%len(blocks)]); err != nil {
				b.Fatal(err)
			}
		case !overwrite && n%2 == 1:
			k = len(poes) - 1 - k
			if err := x.ApplyPulse(cal, poes[k], InverseClass(classes[k])); err != nil {
				b.Fatal(err)
			}
			return
		}
		if err := x.ApplyPulse(cal, poes[k], classes[k]); err != nil {
			b.Fatal(err)
		}
	}
	// Warm every PoE's calibration record and tracker slab entries.
	warm := 2 * len(poes) * len(blocks)
	for i := 0; i < warm; i++ {
		pulse(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pulse(warm + i)
	}
}
