package xbar

import "math/bits"

// The incremental deviation accumulator. Every PoE's deviation is a linear
// (integer) function of the levels of its complement cells, so a PoE's sums
// can be brought up to date from the complement cells that changed since
// they were last computed instead of re-summed over the whole array. Each
// tracked PoE keeps the packed levels its sums were synced to; a sync XORs
// them against the crossbar's current packed levels under the PoE's
// complement mask and adds w·2·(new−old) for each changed cell.
//
// The diff is what makes decryption cheap: the inverse pulses run in
// reverse order, so when a PoE's inverse pulse fires every cell outside its
// polyomino holds the level it held at that PoE's forward pulse, and the
// diff is empty. A read-through's decrypt after its encrypt, a Rewind, or a
// Serial re-encrypt after a decrypt cost nothing, however many cells changed
// and changed back in between. Because the accumulators are exact int64 sums
// of quantized-weight terms (see Calibration), the diff agrees bit-for-bit
// with a from-scratch recompute — it is an optimization, never a different
// answer.
//
// An empty diff also leaves the pulse's permutation choice as it was: a
// shape cell's permutation index depends only on the pulse width, the cell
// and its mixer, and the mixer only on the accumulator. So each PoE memoizes
// the indices of its last pulse under a tag naming that pulse's width, and
// a sync that changes the accumulator clears the tag. A pulse whose width
// matches the tag — the inverse pulse of a decrypt, whatever its polarity —
// reuses the indices without deriving a mixer.

// devTracker holds, per PoE, the incremental deviation accumulator of one
// crossbar against one calibration, packed into three slabs indexed by the
// PoE's calibration slot and accumulator offset (poeCal.slot, accOff):
//
//   - acc[accOff : accOff+S] is the accumulator of a PoE with S shape cells;
//   - words[slot·W : (slot+1)·W] the W packed-level words it is exact for;
//   - memo[accOff+slot] its memo tag and the S bytes after it the memoized
//     permutation indices (perms has 24 entries, so a byte holds one).
//
// Offsets are handed out densely (Calibration.ensure), so the slabs hold
// ΣS, nslots·W and ΣS+nslots entries over the PoEs the calibration has
// built — one allocation each instead of two per PoE. The tracker is owned
// by the crossbar and shares its (externally serialized) mutation
// discipline.
type devTracker struct {
	cal   *Calibration
	acc   []int64
	words []uint64
	memo  []uint8
}

// memoTouched marks a PoE's memo tag once the PoE has been synced. The
// tag's low bits hold width+1 while the indices after it are those of a
// pulse of that width at the current accumulator, 0 while they are not.
const memoTouched uint8 = 0x80

// tracker returns the crossbar's tracker for cal, resetting it if the
// calibration changed since the last pulse.
func (x *Crossbar) tracker(cal *Calibration) *devTracker {
	if x.trk == nil || x.trk.cal != cal {
		x.trk = &devTracker{cal: cal}
	}
	return x.trk
}

// sync brings the accumulator of the PoE calibrated by pc up to date with
// the crossbar's current levels and returns it. A PoE seen for the first
// time starts from the all-level-0 state (acc0), so first touch is a diff
// too. When more than 5/8 of the complement changed — fresh data after a
// write — the dense kernel (poeCal.dense) is cheaper than the per-cell
// updates and recomputes the sums from the packed words; both give the
// identical int64 values. (5/8 is the measured crossover of the two on the
// 8x8 and 16x16 devices: 0.60-0.65 of the complement at both sizes, see
// EXPERIMENTS.md.) Either way the PoE's memoized permutation indices are
// invalidated.
func (t *devTracker) sync(pc *poeCal, x *Crossbar) []int64 {
	s, nw := len(pc.acc0), len(x.packed)
	if pc.accOff+pc.slot+1+s > len(t.memo) {
		t.grow(nw)
	}
	acc := t.acc[pc.accOff : pc.accOff+s]
	old := t.words[pc.slot*nw : (pc.slot+1)*nw]
	tag := &t.memo[pc.accOff+pc.slot]
	if *tag == 0 {
		copy(acc, pc.acc0)
		*tag = memoTouched
	}
	cur := x.packed
	switch changed := pending(pc, cur, old); {
	case changed == 0:
		return acc
	case 8*changed > 5*len(pc.compIdx):
		pc.dense(acc, cur)
	default:
		for w, m := range pc.compMask {
			d := cellBits((cur[w] ^ old[w]) & m)
			for d != 0 {
				b := bits.TrailingZeros64(d)
				d &= d - 1
				dq := 2 * (int64(cur[w]>>b&3) - int64(old[w]>>b&3))
				j := int(pc.compPos[w<<5|b>>1]) * s
				stripe := pc.wT[j : j+s]
				acc := acc[:len(stripe)]
				for k, wk := range stripe {
					acc[k] += wk * dq
				}
			}
		}
	}
	*tag = memoTouched
	copy(old, cur)
	return acc
}

// grow extends the slabs to every PoE the calibration has built so far;
// the new entries are zero, an untouched PoE.
func (t *devTracker) grow(nw int) {
	nslots, accLen := t.cal.slotsOut()
	t.acc = append(t.acc, make([]int64, accLen-len(t.acc))...)
	t.words = append(t.words, make([]uint64, nslots*nw-len(t.words))...)
	t.memo = append(t.memo, make([]uint8, accLen+nslots-len(t.memo))...)
}

// permsFor returns the permutation index of each shape cell of the PoE
// calibrated by pc (linear index pi) for a pulse of the given width at the
// accumulator acc that sync just returned. The indices are derived only
// when the PoE's memo holds none for this width; the returned slice is the
// memo itself.
func (t *devTracker) permsFor(pc *poeCal, pi, width int, acc []int64) []uint8 {
	m := t.memo[pc.accOff+pc.slot : pc.accOff+pc.slot+1+len(acc)]
	if tag := memoTouched | uint8(width+1); m[0] != tag {
		for k, d := range acc {
			m[1+k] = uint8(permIndex(width, pc.mixer(pi, k, d), int(pc.shapeIdx[k])))
		}
		m[0] = tag
	}
	return m[1:]
}

// pending returns how many of pc's complement cells differ between the
// packed levels cur and old.
func pending(pc *poeCal, cur, old []uint64) int {
	n := 0
	for w, m := range pc.compMask {
		n += bits.OnesCount64(cellBits((cur[w] ^ old[w]) & m))
	}
	return n
}

// cellBits folds every 2-bit cell field of a packed-level word onto its low
// bit: bit 2c is set iff cell c's field is nonzero.
func cellBits(d uint64) uint64 { return (d | d>>1) & 0x5555555555555555 }
