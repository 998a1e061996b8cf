package xbar

// Snapshot is a saved copy of a crossbar's cell levels and wear, taken by
// Save and returned to by Rewind. Its buffers are reused across Saves, so a
// caller that keeps one Snapshot per serialized owner saves without
// allocating.
type Snapshot struct {
	levels []int
	wear   []uint64
}

// Save copies the crossbar's levels and wear into s.
func (x *Crossbar) Save(s *Snapshot) {
	s.levels = append(s.levels[:0], x.levels...)
	s.wear = append(s.wear[:0], x.wear...)
}

// Rewind returns the crossbar to the state saved by Save(s) as the inverse
// of every pulse applied since would: the inverse pulses in reverse order.
// A pulse permutes its polyomino's levels under mixers that depend only on
// the cells outside the polyomino, so its inverse restores exactly the
// levels it found, and the whole inverse train restores the saved levels.
// Rewind writes them back directly instead of re-deriving them pulse by
// pulse. The wear the inverse train would add is charged all the same:
// every cell's wear grows again by the pulses it took since Save. Restored
// cells are journaled as a pulse journals its cells, so the incremental
// deviation accumulators stay bit-exact.
//
// Only pulses may come between Save and Rewind (a WriteBlock or SetLevels
// in between would be charged as pulse wear), s must hold a Save of this
// crossbar, and no trace records are emitted for the rewound pulses.
func (x *Crossbar) Rewind(s *Snapshot) {
	t := x.trk
	for i, l := range s.levels {
		if old := x.levels[i]; old != l {
			x.levels[i] = l
			if t != nil {
				t.journal = append(t.journal, levelDelta{cell: int32(i), dq: int32(2 * (l - old))})
			}
		}
		x.wear[i] += x.wear[i] - s.wear[i]
	}
	if t != nil && len(t.journal) >= maxJournal {
		t.compact()
	}
}
