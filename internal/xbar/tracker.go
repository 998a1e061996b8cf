package xbar

// The permutation memo. A shape cell's permutation index depends only on
// the pulse width, the cell and its mixer, and the mixer only on the
// deviation sums of the PoE's complement cells. So each PoE memoizes the
// indices of its last pulse under a tag naming that pulse's width, with
// the packed levels they were derived at. A pulse whose width matches the
// tag and whose PoE finds no complement cell changed since reuses the
// indices without summing anything; any other pulse recomputes the sums
// from the packed words (poeCal.dense), derives the indices and retags.
//
// The reuse is what makes decryption cheap: the inverse pulses run in
// reverse order, so when a PoE's inverse pulse fires every cell outside its
// polyomino holds the level it held at that PoE's forward pulse, and the
// inverse pulse — same width, opposite polarity — finds its forward
// pulse's indices. A read-through's decrypt after its encrypt, a Rewind, or
// a Serial re-encrypt after a decrypt derive nothing, however many cells
// changed and changed back in between. Because the sums are exact int64
// sums of quantized-weight terms (see Calibration), a recompute at the same
// complement levels gives the same indices bit for bit — the memo is an
// optimization, never a different answer.
//
// The sums themselves are not kept: in the measured traffic a lookup
// either reuses the memo or finds most of the complement changed, so sums
// kept for a per-cell update would almost never be read (DESIGN.md, "The
// per-pulse kernel").

// devTracker holds, per PoE, the permutation memo of one crossbar against
// one calibration, packed into two slabs indexed by the PoE's calibration
// slot and memo offset (poeCal.slot, memoOff):
//
//   - words[slot·W : (slot+1)·W] the W packed-level words the memo was
//     derived at;
//   - memo[memoOff] its tag, width+1 of the memoized pulse or 0 for none,
//     and the S bytes after it the permutation indices of a PoE with S
//     shape cells (perms has 24 entries, so a byte holds one).
//
// Offsets are handed out densely (Calibration.ensure), so the slabs hold
// nslots·W and ΣS+nslots entries over the PoEs the calibration has built.
// sums is the scratch the dense kernel writes into, as long as the largest
// polyomino seen. The tracker is owned by the crossbar and shares its
// (externally serialized) mutation discipline.
type devTracker struct {
	cal   *Calibration
	words []uint64
	memo  []uint8
	sums  []int64
}

// tracker returns the crossbar's tracker for cal, resetting it if the
// calibration changed since the last pulse.
func (x *Crossbar) tracker(cal *Calibration) *devTracker {
	if x.trk == nil || x.trk.cal != cal {
		x.trk = &devTracker{cal: cal}
	}
	return x.trk
}

// perms returns the permutation index of each shape cell of the PoE
// calibrated by pc (linear index pi) for a pulse of the given width at the
// crossbar's current levels. The returned slice is the PoE's memo: it is
// reused when it was derived for this width at the same complement levels,
// and rederived from the dense sums otherwise.
func (t *devTracker) perms(pc *poeCal, pi, width int, x *Crossbar) []uint8 {
	s, nw := len(pc.shape), len(x.packed)
	if pc.memoOff+1+s > len(t.memo) {
		t.grow(nw)
	}
	m := t.memo[pc.memoOff : pc.memoOff+1+s]
	old := t.words[pc.slot*nw : (pc.slot+1)*nw]
	tag := uint8(width + 1)
	if m[0] == tag && !complementChanged(pc, x.packed, old) {
		return m[1:]
	}
	for k, d := range t.sumsAt(pc, x) {
		m[1+k] = uint8(permIndex(width, pc.mixer(pi, k, d), int(pc.shapeIdx[k])))
	}
	m[0] = tag
	copy(old, x.packed)
	return m[1:]
}

// sumsAt recomputes the deviation sums of the PoE calibrated by pc at the
// crossbar's current levels into the tracker's scratch and returns them;
// they are valid until the next call.
func (t *devTracker) sumsAt(pc *poeCal, x *Crossbar) []int64 {
	s := len(pc.shape)
	if len(t.sums) < s {
		t.sums = make([]int64, s)
	}
	pc.dense(t.sums[:s], x.packed)
	return t.sums[:s]
}

// grow extends the slabs to every PoE the calibration has built so far;
// the new entries are zero, an untouched PoE.
func (t *devTracker) grow(nw int) {
	nslots, memoLen := t.cal.slotsOut()
	t.words = append(t.words, make([]uint64, nslots*nw-len(t.words))...)
	t.memo = append(t.memo, make([]uint8, memoLen-len(t.memo))...)
}

// complementChanged reports whether any of pc's complement cells differs
// between the packed levels cur and old.
func complementChanged(pc *poeCal, cur, old []uint64) bool {
	for w, m := range pc.compMask {
		if (cur[w]^old[w])&m != 0 {
			return true
		}
	}
	return false
}
