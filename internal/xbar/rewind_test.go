package xbar

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"snvmm/internal/device"
)

// TestRewindMatchesInverseTrain checks Rewind against the pulse train it
// stands in for. Two identical crossbars take the same random forward
// pulses; one is then rewound, the other gets the inverse pulses in reverse
// order. Levels and per-cell wear must agree after every round, and every
// live deviation accumulator of the rewound crossbar must equal a
// from-scratch recompute. The rounds run long enough that Rewind's own
// journal entries push the journal past maxJournal many times, so the
// compaction it triggers is exercised, not just ApplyPulse's.
func TestRewindMatchesInverseTrain(t *testing.T) {
	a, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cal := Calibrate(a)
	rng := rand.New(rand.NewSource(11))
	levels := make([]int, a.Cfg.Cells())
	for i := range levels {
		levels[i] = rng.Intn(device.Levels)
	}
	for _, x := range []*Crossbar{a, b} {
		if err := x.SetLevels(levels); err != nil {
			t.Fatal(err)
		}
	}
	poes := []Cell{{0, 0}, {2, 4}, {5, 1}, {7, 7}, {3, 3}, {6, 2}, {1, 6}, {4, 5}}
	type pulse struct {
		poe   Cell
		class int
	}
	var snap Snapshot
	compactions := 0
	for round := 0; round < 300; round++ {
		train := make([]pulse, 1+rng.Intn(12))
		for k := range train {
			train[k] = pulse{poes[rng.Intn(len(poes))], rng.Intn(device.NumPulses)}
		}
		saved := a.Levels()
		a.Save(&snap)
		for _, p := range train {
			if err := a.ApplyPulse(cal, p.poe, p.class); err != nil {
				t.Fatal(err)
			}
			if err := b.ApplyPulse(cal, p.poe, p.class); err != nil {
				t.Fatal(err)
			}
		}
		for k := len(train) - 1; k >= 0; k-- {
			if err := b.ApplyPulse(cal, train[k].poe, InverseClass(train[k].class)); err != nil {
				t.Fatal(err)
			}
		}
		before := len(a.trk.journal)
		pending := 0
		for i, l := range a.levels {
			if l != saved[i] {
				pending++
			}
		}
		a.Rewind(&snap)
		if before+pending >= maxJournal {
			compactions++
			if len(a.trk.journal) != 0 {
				t.Fatalf("round %d: journal %d+%d reached maxJournal but was not compacted (len %d)",
					round, before, pending, len(a.trk.journal))
			}
		}
		if !slices.Equal(a.levels, saved) || !slices.Equal(a.levels, b.levels) {
			t.Fatalf("round %d: rewound levels differ from the saved state or the inverse train", round)
		}
		if !slices.Equal(a.wear, b.wear) {
			t.Fatalf("round %d: rewound wear differs from the inverse train's", round)
		}
		for pi := range a.trk.acc {
			if a.trk.acc[pi] == nil {
				continue
			}
			pc := &cal.poes[pi]
			got := a.trk.sync(pi, pc, a.levels)
			ref := deviationsRef(pc, a.levels)
			if !slices.Equal(got, ref) {
				t.Fatalf("round %d PoE %d: accumulator %v, scratch %v", round, pi, got, ref)
			}
		}
	}
	if compactions == 0 {
		t.Fatal("no Rewind reached maxJournal; compaction untested")
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
