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

// devTracker holds, per PoE, the incremental deviation accumulator of one
// crossbar against one calibration. It is owned by the crossbar and shares
// its (externally serialized) mutation discipline.
type devTracker struct {
	cal    *Calibration
	poes   []poeState // by poeCal.slot; zero until that PoE is first pulsed
	mixbuf []uint64
	qbuf   []int64 // gathered level coordinates for the dense kernel
}

// poeState is one PoE's accumulator and the packed levels it is exact for.
type poeState struct {
	acc   []int64
	words []uint64
}

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
// write — the dense kernel is cheaper than the per-cell updates and
// recomputes the sums; both give the identical int64 values. (5/8 is the
// measured crossover of the two on the 8x8 and 16x16 devices: ~0.6 of the
// complement at both sizes, see EXPERIMENTS.md.)
func (t *devTracker) sync(pc *poeCal, x *Crossbar) []int64 {
	if pc.slot >= len(t.poes) {
		grown := make([]poeState, max(pc.slot+1, int(t.cal.nslots.Load())))
		copy(grown, t.poes)
		t.poes = grown
	}
	st := &t.poes[pc.slot]
	if st.acc == nil {
		st.acc = append([]int64(nil), pc.acc0...)
		st.words = make([]uint64, len(x.packed))
	}
	cur, old := x.packed, st.words
	switch changed := st.pending(pc, cur); {
	case changed == 0:
		return st.acc
	case 8*changed > 5*len(pc.compIdx):
		t.qbuf = pc.deviationsInto(st.acc, x.levels, t.qbuf)
	default:
		s := len(st.acc)
		for w, m := range pc.compMask {
			d := cellBits((cur[w] ^ old[w]) & m)
			for d != 0 {
				b := bits.TrailingZeros64(d)
				d &= d - 1
				dq := 2 * (int64(cur[w]>>b&3) - int64(old[w]>>b&3))
				j := int(pc.compPos[w<<5|b>>1]) * s
				stripe := pc.wT[j : j+s]
				acc := st.acc[:len(stripe)]
				for k, wk := range stripe {
					acc[k] += wk * dq
				}
			}
		}
	}
	copy(old, cur)
	return st.acc
}

// pending returns how many of pc's complement cells differ between the
// packed levels cur and the ones st was last synced to.
func (st *poeState) pending(pc *poeCal, cur []uint64) int {
	n := 0
	for w, m := range pc.compMask {
		n += bits.OnesCount64(cellBits((cur[w] ^ st.words[w]) & m))
	}
	return n
}

// cellBits folds every 2-bit cell field of a packed-level word onto its low
// bit: bit 2c is set iff cell c's field is nonzero.
func cellBits(d uint64) uint64 { return (d | d>>1) & 0x5555555555555555 }
