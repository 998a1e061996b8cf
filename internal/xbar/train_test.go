package xbar

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"snvmm/internal/device"
)

// pulseTrain runs sc over poes on x one ApplyPulse at a time: the
// memo-free twin of Train, which derives every pulse's indices afresh.
func pulseTrain(x *Crossbar, cal *Calibration, poes []Cell, sc schedule, inverse bool) error {
	if inverse {
		for s := len(sc.order) - 1; s >= 0; s-- {
			if err := x.ApplyPulse(cal, poes[sc.order[s]], InverseClass(sc.classes[s])); err != nil {
				return err
			}
		}
		return nil
	}
	for s, o := range sc.order {
		if err := x.ApplyPulse(cal, poes[o], sc.classes[s]); err != nil {
			return err
		}
	}
	return nil
}

// twinErr checks x against its memo-free twin y: the same levels and the
// same per-cell wear.
func twinErr(x, y *Crossbar) error {
	if !slices.Equal(x.packed, y.packed) {
		return fmt.Errorf("levels %x differ from the memo-free twin's %x", x.packed, y.packed)
	}
	if xw, yw := x.Wear(), y.Wear(); !slices.Equal(xw, yw) {
		return fmt.Errorf("wear %v differs from the memo-free twin's %v", xw, yw)
	}
	return nil
}

// TestInverseTrainMatchesPulses checks an inverse train that follows its
// forward train — the decrypt that reuses the forward train's indices —
// against the same pulses run through ApplyPulse, at 8x8 and 16x16. Two
// identical crossbars take the same random schedule, in which a PoE may
// recur, forward and then inverse; one through Train, the other pulse by
// pulse. Levels and per-cell wear must agree after every train, and the
// train record must hold its invariant (checkTracker) against a per-cell
// model after every step. Between rounds both crossbars sometimes take
// the same WriteBlock or SetLevels, so trains also start from bulk writes.
func TestInverseTrainMatchesPulses(t *testing.T) {
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
			sc := randomSchedule(rng, len(poes), 1+rng.Intn(12))
			saved := slices.Clone(ma)
			for _, inverse := range []bool{false, true} {
				if train(t, a, cal, ma, poes, sc, inverse) {
					t.Fatalf("%dx%d round %d: a train (inverse %v) after a bulk write or its forward train restored", cfg.Rows, cfg.Cols, round, inverse)
				}
				if err := pulseTrain(b, cal, poes, sc, inverse); err != nil {
					t.Fatal(err)
				}
				mb.train(cal, poes, sc, inverse)
				checkTracker(t, b, cal, mb)
				if err := twinErr(a, b); err != nil {
					t.Fatalf("%dx%d round %d (inverse %v): %v", cfg.Rows, cfg.Cols, round, inverse, err)
				}
			}
			if !slices.Equal(a.Levels(), saved) {
				t.Fatalf("%dx%d round %d: the inverse train did not return the levels the forward train started from", cfg.Rows, cfg.Cols, round)
			}
		}
	}
}

// TestInverseTrainFindsNoChanges pins the property the train record is
// built on: the inverse pulses run in reverse order, so when a PoE's
// inverse pulse fires every cell outside its polyomino holds the level it
// held at that PoE's forward pulse. Every inverse pulse of a train applied
// right after its forward train must therefore find the reference
// deviation sums its forward pulse found, on fresh data and on data the
// crossbar has held before.
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
			found := make([][]int64, len(order))
			for k, p := range order {
				classes[k] = rng.Intn(device.NumPulses)
				if err := cal.ensure(poes[p]); err != nil {
					t.Fatal(err)
				}
				found[k] = deviationsRef(&cal.poes[cal.poeIndex(poes[p])], m)
				applyPulse(t, x, cal, m, poes[p], classes[k])
			}
			for k := len(order) - 1; k >= 0; k-- {
				poe := poes[order[k]]
				if got := deviationsRef(&cal.poes[cal.poeIndex(poe)], m); !slices.Equal(got, found[k]) {
					t.Fatalf("%dx%d round %d: inverse pulse at %+v finds sums %v, its forward pulse found %v",
						cfg.Rows, cfg.Cols, round, poe, got, found[k])
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

// TestRestoringTrainMatchesForwardPulses checks the restore — a forward
// train after the inverse train of the same schedule writes back the
// levels that train started from — against the forward pulses it stands
// in for, at 8x8 and 16x16. Two identical crossbars take the same forward
// train (an encrypt) and the same inverse train (a decrypt), one through
// Train and the other through ApplyPulse; then the first runs the forward
// train again, which must report restored, and the second pulses it.
// Levels, per-cell wear and the record invariant (checkTracker) must agree
// after every train, and a second inverse train after the restore must
// reuse the recorded indices correctly too. Between rounds both crossbars
// sometimes take the same WriteBlock, and some rounds rewrite the
// decrypted levels in place (a WriteBlock of the same data), which must
// keep the record.
func TestRestoringTrainMatchesForwardPulses(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
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
		for round := 0; round < 60; round++ {
			if round%3 == 0 {
				data := make([]byte, a.BlockBytes())
				rng.Read(data)
				writeBlock(t, a, ma, data)
				writeBlock(t, b, mb, data)
			}
			sc := schedule{rng.Perm(len(poes)), make([]int, len(poes))}
			if round%2 == 1 {
				sc = randomSchedule(rng, len(poes), 1+rng.Intn(12))
			}
			for s := range sc.classes {
				sc.classes[s] = rng.Intn(device.NumPulses)
			}
			for k, inverse := range []bool{false, true, false, true, false} {
				if k == 2 && round%4 == 1 {
					same := a.ReadBlock()
					writeBlock(t, a, ma, same)
					writeBlock(t, b, mb, same)
				}
				restored := train(t, a, cal, ma, poes, sc, inverse)
				if want := k == 2 || k == 4; restored != want {
					t.Fatalf("%dx%d round %d train %d: restored %v, want %v", cfg.Rows, cfg.Cols, round, k, restored, want)
				}
				if err := pulseTrain(b, cal, poes, sc, inverse); err != nil {
					t.Fatal(err)
				}
				mb.train(cal, poes, sc, inverse)
				checkTracker(t, b, cal, mb)
				if err := twinErr(a, b); err != nil {
					t.Fatalf("%dx%d round %d train %d: %v", cfg.Rows, cfg.Cols, round, k, err)
				}
			}
		}
	}
}

// TestTrainValidatesFirst checks that a train with a bad step — a PoE
// position past the list, an out-of-range class, an out-of-bounds PoE, a
// classes slice of the wrong length, or a calibration of another
// geometry — fails before it changes anything: levels, wear and the
// record of the last train stay as they were, so the next inverse train
// still reuses its indices.
func TestTrainValidatesFirst(t *testing.T) {
	x, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cal := Calibrate(x)
	other, err := New(sizedConfig(6, 6))
	if err != nil {
		t.Fatal(err)
	}
	m := make(cellModel, x.Cfg.Cells())
	writeBlock(t, x, m, bytes.Repeat([]byte{0x5a}, x.BlockBytes()))
	poes := []Cell{{0, 0}, {2, 4}, {5, 1}, {7, 7}, {Row: 8, Col: 0}}
	good := schedule{[]int{0, 1, 2, 3}, []int{3, 17, 8, 30}}
	train(t, x, cal, m, poes, good, false)
	packed, wear := slices.Clone(x.packed), x.Wear()
	for name, bad := range map[string]schedule{
		"PoE position past the list":  {[]int{0, 1, 5}, []int{1, 2, 3}},
		"negative PoE position":       {[]int{0, -1}, []int{1, 2}},
		"class out of range":          {[]int{0, 1, 2}, []int{1, device.NumPulses, 3}},
		"out-of-bounds PoE":           {[]int{0, 1, 4}, []int{1, 2, 3}},
		"classes of the wrong length": {[]int{0, 1, 2}, []int{1, 2}},
	} {
		for _, inverse := range []bool{false, true} {
			if _, err := x.Train(cal, poes, bad.order, bad.classes, inverse); err == nil {
				t.Fatalf("%s (inverse %v): train succeeded", name, inverse)
			}
			if !slices.Equal(x.packed, packed) || !slices.Equal(x.Wear(), wear) {
				t.Fatalf("%s (inverse %v): failed train changed the crossbar", name, inverse)
			}
		}
	}
	if _, err := x.Train(Calibrate(other), poes, good.order, good.classes, true); err == nil {
		t.Fatal("train under a calibration of another geometry succeeded")
	}
	x.rec.sums = nil
	train(t, x, cal, m, poes, good, true)
	if x.rec.sums != nil {
		t.Error("after the failed trains, the inverse train summed instead of reusing the forward train's indices")
	}
}

// pulseCounter is a trace sink that counts the pulses it sees.
type pulseCounter struct{ n int }

func (c *pulseCounter) OnPulse(PulseTrace) { c.n++ }

// TestTracedTrainEmitsEveryPulse checks that a crossbar with a trace sink
// attached observes every pulse of every train: the forward train after
// its inverse pulses with the recorded indices instead of restoring, so a
// side-channel harness sees the pulses the hardware applies. The traced
// crossbar must still match an untraced twin's levels and wear.
func TestTracedTrainEmitsEveryPulse(t *testing.T) {
	x, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	y, err := New(x.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	cal := Calibrate(x)
	var sink pulseCounter
	if err := x.SetTraceSink(&sink, TraceRaw); err != nil {
		t.Fatal(err)
	}
	m := make(cellModel, x.Cfg.Cells())
	data := bytes.Repeat([]byte{0xc3}, x.BlockBytes())
	writeBlock(t, x, m, data)
	if err := y.WriteBlock(data); err != nil {
		t.Fatal(err)
	}
	poes := []Cell{{0, 0}, {2, 4}, {5, 1}, {7, 7}}
	sc := schedule{[]int{0, 1, 2, 3, 1}, []int{3, 17, 8, 30, 5}}
	for k, inverse := range []bool{false, true, false, true} {
		if train(t, x, cal, m, poes, sc, inverse) {
			t.Fatalf("traced train %d restored instead of pulsing", k)
		}
		if want := (k + 1) * len(sc.order); sink.n != want {
			t.Fatalf("after train %d the sink saw %d pulses, want %d", k, sink.n, want)
		}
		if _, err := y.Train(cal, poes, sc.order, sc.classes, inverse); err != nil {
			t.Fatal(err)
		}
		if err := twinErr(x, y); err != nil {
			t.Fatalf("train %d: traced crossbar vs untraced: %v", k, err)
		}
	}
}

// TestTrainRejectsUnrecordableGeometry checks that a crossbar with more
// cells than a 16-bit PoE index can name — the train record's and the
// wear table's — refuses to train or take a pulse, before it touches
// anything.
func TestTrainRejectsUnrecordableGeometry(t *testing.T) {
	x, err := New(sizedConfig(257, 256))
	if err != nil {
		t.Fatal(err)
	}
	cal := Calibrate(x)
	if _, err := x.Train(cal, []Cell{{0, 0}}, []int{0}, []int{1}, false); err == nil {
		t.Fatal("a 257x256 crossbar trained")
	}
	if err := x.ApplyPulse(cal, Cell{Row: 256, Col: 255}, 1); err == nil {
		t.Fatal("a 257x256 crossbar took a pulse")
	}
	if x.rec.cal != nil || slices.ContainsFunc(x.Wear(), func(w uint64) bool { return w != 0 }) {
		t.Fatal("the refused train or pulse changed the crossbar")
	}
}

// TestTrainMatchesWholeSchedule checks that only the opposite train of the
// exact recorded schedule reuses the record: an inverse train whose
// schedule differs from the forward train's in one class, in one PoE, or
// in its length must derive its own indices (it sums), and every train
// must leave the levels and wear of a twin crossbar pulsed through
// ApplyPulse.
func TestTrainMatchesWholeSchedule(t *testing.T) {
	x, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	y, err := New(x.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	cal := Calibrate(x)
	m := make(cellModel, x.Cfg.Cells())
	data := bytes.Repeat([]byte{0x96}, x.BlockBytes())
	writeBlock(t, x, m, data)
	if err := y.WriteBlock(data); err != nil {
		t.Fatal(err)
	}
	poes := []Cell{{0, 0}, {2, 4}, {5, 1}, {7, 7}, {3, 3}}
	base := schedule{[]int{0, 1, 2, 3}, []int{3, 17, 8, 30}}
	for name, other := range map[string]schedule{
		"another class":  {[]int{0, 1, 2, 3}, []int{3, 17, 9, 30}},
		"another PoE":    {[]int{0, 1, 4, 3}, []int{3, 17, 8, 30}},
		"a longer train": {[]int{0, 1, 2, 3, 1}, []int{3, 17, 8, 30, 5}},
	} {
		for _, step := range []struct {
			sc      schedule
			inverse bool
		}{{base, false}, {other, true}, {base, false}, {other, true}} {
			x.rec.sums = nil
			train(t, x, cal, m, poes, step.sc, step.inverse)
			if x.rec.sums == nil {
				t.Fatalf("%s: a train after a different schedule (inverse %v) reused the record", name, step.inverse)
			}
			if err := pulseTrain(y, cal, poes, step.sc, step.inverse); err != nil {
				t.Fatal(err)
			}
			if err := twinErr(x, y); err != nil {
				t.Fatalf("%s (inverse %v): %v", name, step.inverse, err)
			}
		}
	}
}
