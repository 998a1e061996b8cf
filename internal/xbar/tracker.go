package xbar

// The incremental deviation accumulator. A pulse permutes only the levels of
// its polyomino cells, and every other PoE's deviation is a linear (integer)
// function of cell levels, so after a pulse the next PoE's deviations can be
// updated from the few changed cells instead of re-summed over the whole
// array. Because the accumulators are exact int64 sums of quantized-weight
// terms (see Calibration), incremental maintenance agrees bit-for-bit with a
// from-scratch recompute — the replay path is an optimization, never a
// different answer.

// maxJournal bounds the change journal; when it fills, accumulators that can
// still catch up cheaply are replayed to the tip and the journal is
// truncated.
const maxJournal = 512

// levelDelta records one cell's level change as dq = 2*(new-old), the exact
// delta of the integer level coordinate q = 2l-3.
type levelDelta struct {
	cell, dq int32
}

// devTracker holds, per PoE, the incremental deviation accumulator of one
// crossbar against one calibration, plus the shared change journal. It is
// owned by the crossbar and shares its (externally serialized) mutation
// discipline.
type devTracker struct {
	cal     *Calibration
	acc     [][]int64 // per PoE; nil until that PoE is first pulsed
	pos     []int     // journal position acc is synced to; -1 = stale
	journal []levelDelta
	mixbuf  []uint64
	qbuf    []int64 // gathered level coordinates for the scratch kernel
}

// tracker returns the crossbar's tracker for cal, resetting it if the
// calibration changed since the last pulse.
func (x *Crossbar) tracker(cal *Calibration) *devTracker {
	if x.trk == nil || x.trk.cal != cal {
		n := len(x.levels)
		t := &devTracker{cal: cal, acc: make([][]int64, n), pos: make([]int, n)}
		for i := range t.pos {
			t.pos[i] = -1
		}
		x.trk = t
	}
	return x.trk
}

// invalidateTracker marks every accumulator stale after a bulk state change
// (WriteBlock, SetLevels). Buffers are kept for reuse.
func (x *Crossbar) invalidateTracker() {
	if t := x.trk; t != nil {
		for i := range t.pos {
			t.pos[i] = -1
		}
		t.journal = t.journal[:0]
	}
}

// sync brings the accumulator of PoE pi up to date with the crossbar's
// current levels and returns it. It replays pending journal entries when
// that is cheaper than a from-scratch recompute (at most one weight-row pass
// per pending entry vs one per complement cell) and falls back to the scratch
// kernel otherwise — both produce the identical int64 values.
func (t *devTracker) sync(pi int, pc *poeCal, levels []int) []int64 {
	acc := t.acc[pi]
	if acc == nil {
		acc = make([]int64, len(pc.shape))
		t.acc[pi] = acc
	}
	jlen := len(t.journal)
	pos := t.pos[pi]
	if pos < 0 || jlen-pos > len(pc.compIdx) {
		t.qbuf = pc.deviationsInto(acc, levels, t.qbuf)
	} else {
		replay(acc, pc, t.journal[pos:jlen])
	}
	t.pos[pi] = jlen
	return acc
}

// replay applies journal entries to an accumulator. Entries for cells the
// PoE is not sensitive to (its own polyomino, or cells with all-zero
// weights) are skipped via the compPos map.
func replay(acc []int64, pc *poeCal, entries []levelDelta) {
	for _, e := range entries {
		j := pc.compPos[e.cell]
		if j < 0 {
			continue
		}
		dq := int64(e.dq)
		for k, row := range pc.wflat {
			acc[k] += row[j] * dq
		}
	}
}

// compact truncates a full journal. Accumulators close enough to the tip are
// replayed current (and restart at position 0); the rest are marked stale and
// will resync from scratch on next use.
func (t *devTracker) compact() {
	jlen := len(t.journal)
	for p := range t.acc {
		if t.acc[p] == nil || t.pos[p] < 0 {
			continue
		}
		pc := &t.cal.poes[p]
		if jlen-t.pos[p] <= len(pc.compIdx) {
			replay(t.acc[p], pc, t.journal[t.pos[p]:jlen])
			t.pos[p] = 0
		} else {
			t.pos[p] = -1
		}
	}
	t.journal = t.journal[:0]
}
