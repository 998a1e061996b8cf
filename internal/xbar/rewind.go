package xbar

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
// deviation accumulators need no notice: each PoE's next sync diffs the
// levels it then finds against the ones it last saw.
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
