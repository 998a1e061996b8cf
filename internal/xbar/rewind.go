package xbar

import "fmt"

// Snapshot is a saved copy of a crossbar's packed cell levels and wear,
// taken by Save and returned to by Rewind. Its buffers are reused across
// Saves, so a caller that keeps one Snapshot per serialized owner saves
// without allocating.
type Snapshot struct {
	packed []uint64
	wear   []uint64
}

// Save copies the crossbar's levels and wear into s.
func (x *Crossbar) Save(s *Snapshot) {
	s.packed = append(s.packed[:0], x.packed...)
	s.wear = append(s.wear[:0], x.wear...)
}

// Rewind returns the crossbar to the state saved by Save(s) as the inverse
// of every pulse applied since would: the inverse pulses in reverse order.
// A pulse permutes its polyomino's levels under mixers that depend only on
// the cells outside the polyomino, so its inverse restores exactly the
// levels it found, and the whole inverse train restores the saved levels.
// Rewind writes them back directly instead of re-deriving them pulse by
// pulse. The wear the inverse train would add is charged all the same:
// every cell's wear grows again by the pulses it took since Save. The
// permutation memos need no notice: each PoE's next pulse compares the
// levels it then finds against the ones its memo was derived at.
//
// Only pulses may come between Save and Rewind (a WriteBlock or SetLevels
// in between would be charged as pulse wear), s must hold a Save of this
// crossbar, and no trace records are emitted for the rewound pulses.
func (x *Crossbar) Rewind(s *Snapshot) {
	copy(x.packed, s.packed)
	for i, w := range s.wear {
		x.wear[i] += x.wear[i] - w
	}
}

// AppendPacked appends the crossbar's packed cell levels (2 bits per cell,
// 32 cells per word) to dst, the form RestoreTrain takes back.
func (x *Crossbar) AppendPacked(dst []uint64) []uint64 {
	return append(dst, x.packed...)
}

// RestoreTrain returns the crossbar to the packed levels at the head of
// words, saved by AppendPacked before an inverse pulse train at the PoEs
// poes, as that train's forward train would: the forward pulses run in
// the opposite order and each undoes its inverse pulse, so the forward
// train rebuilds exactly the saved levels. RestoreTrain writes them back
// directly and charges the train's wear: one pulse per PoE on each of its
// shape cells. It returns how many words it consumed, so a caller restoring
// several crossbars from one buffer can walk it. The permutation memos
// need no notice, as for Rewind.
//
// Only that inverse train may come between the save and RestoreTrain, poes
// must name each PoE of the train once, and no trace records are emitted
// for the restored pulses.
func (x *Crossbar) RestoreTrain(cal *Calibration, poes []Cell, words []uint64) (int, error) {
	nw := len(x.packed)
	if len(words) < nw {
		return 0, fmt.Errorf("xbar: RestoreTrain needs %d packed words, got %d", nw, len(words))
	}
	if err := x.checkCal(cal); err != nil {
		return 0, err
	}
	for _, poe := range poes {
		if err := cal.ensure(poe); err != nil {
			return 0, err
		}
	}
	copy(x.packed, words[:nw])
	for _, poe := range poes {
		for _, i := range cal.poes[cal.poeIndex(poe)].shapeIdx {
			x.wear[i]++
		}
	}
	return nw, nil
}
