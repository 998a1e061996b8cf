package xbar

import (
	"encoding/binary"
	"fmt"
	"math"

	"snvmm/internal/device"
)

// The train record. SPE decrypts by applying the hysteresis-matched
// inverse pulses in reverse order (Section 5.3), and SPE-parallel
// re-encrypts after every read (Section 7): each is the exact inverse of a
// whole pulse train. A shape cell's permutation index depends only on the
// pulse width, the cell and its mixer, and the mixer only on the deviation
// sums of the PoE's complement cells, which the PoE's own pulse leaves
// alone. So take a train under the schedule σ (per step, a PoE and a
// class) that starts from the exact levels the last train under σ, run in
// the opposite direction, ended at. By induction over its steps, each
// pulse finds its complement as the matching pulse of that train found
// it, and so uses the same permutation indices: the train needs no sum,
// and its end state is the other train's start state. That holds however
// often a PoE recurs in σ, because each step only permutes its own
// polyomino.
//
// Each crossbar keeps one record of its last train (trainRecord), and
// Train uses it:
//
//   - a forward train after the inverse train of the same σ writes back
//     the words that train started from (the ciphertext it decrypted) and
//     charges each step's PoE the pulse it would have taken;
//   - an inverse train after the forward train of the same σ pulses with
//     the recorded indices and sums nothing;
//   - any other train derives each step's indices from the dense sums
//     (poeCal.dense) at the levels it finds, and replaces the record.
//
// Because the sums are exact int64 sums of quantized-weight terms (see
// Calibration), a derivation at the same complement levels gives the same
// indices bit for bit: the record is an optimization, never a different
// answer. Any change of a cell outside a train voids the record: a
// WriteBlock or SetLevels that changes a word, and every ApplyPulse.

// trainRecord is a crossbar's record of its last pulse train, held in one
// buffer:
//
//   - for an inverse train, the W packed words the crossbar held when it
//     started, 8 bytes each: the ciphertext the train decrypted (after a
//     forward train these bytes are stale and unused);
//   - σ, three bytes per step: the PoE's linear cell index (little-endian
//     uint16) and the step's schedule class (the forward class, for either
//     direction);
//   - the permutation indices each step used, S bytes per step for a PoE
//     with S shape cells, in step order (perms has 24 entries, so a byte
//     holds one).
//
// cal is nil when there is no record; steps is an int32 so it and the
// inverse flag share one word, which keeps a Crossbar in 352 bytes. sums is the scratch the dense kernel
// writes into, sized by each recording train for its largest polyomino.
// The record is owned by the crossbar and shares its (externally
// serialized) mutation discipline.
type trainRecord struct {
	cal     *Calibration
	steps   int32
	inverse bool
	buf     []byte
	sums    []int64
}

// maxPulseCells bounds the geometries that can be pulsed: the train
// record's σ and the wear table hold a PoE's cell index in 16 bits, and
// the table keeps the last value, 0xFFFF, for a free entry.
const maxPulseCells = 1<<16 - 1

// forget voids the record: the crossbar's cells changed outside a train.
func (r *trainRecord) forget() { r.cal = nil }

// sumsAt computes the deviation sums of the PoE calibrated by pc at the
// packed levels words into the record's scratch, growing it when pc's
// polyomino is longer, and returns them; they are valid until the next
// call.
func (r *trainRecord) sumsAt(pc *poeCal, words []uint64) []int64 {
	s := len(pc.shape)
	if len(r.sums) < s {
		r.sums = make([]int64, s)
	}
	pc.dense(r.sums[:s], words)
	return r.sums[:s]
}

// Train applies the pulse train of schedule σ — at step s, class
// classes[s] at the PoE poes[order[s]] — to the crossbar: the forward
// train in step order, or, when inverse is set, the hysteresis-matched
// inverse pulses (InverseClass) in reverse step order, the decrypt of
// Section 5.3. It checks the geometry, every step's PoE and class, and
// calibrates every PoE before it changes a cell, so a failed train leaves
// the crossbar untouched; a step that matches the record was checked by
// the train that recorded it.
//
// A forward train that follows the inverse train of the same σ, with no
// cell changed in between, writes back the levels that train started from
// instead of pulsing — the forward train rebuilds them exactly — charges
// each step's PoE one pulse of wear, and reports restored. When a
// trace sink is attached it pulses with the recorded indices instead, so
// every pulse is observed. See the package's train record for the other
// cases.
func (x *Crossbar) Train(cal *Calibration, poes []Cell, order, classes []int, inverse bool) (restored bool, err error) {
	n, nw := len(order), len(x.packed)
	if len(classes) != n {
		return false, fmt.Errorf("xbar: train of %d steps has %d classes", n, len(classes))
	}
	if err := x.checkCal(cal); err != nil {
		return false, err
	}
	if n > math.MaxInt32 {
		return false, fmt.Errorf("xbar: a train records at most %d steps, got %d", math.MaxInt32, n)
	}
	// hit: the record holds this σ, run in the opposite direction. Its
	// steps were checked by the train that recorded them.
	r := &x.rec
	hit := r.matches(cal, poes, order, classes, !inverse, nw)
	if !hit {
		for s, o := range order {
			if o < 0 || o >= len(poes) {
				return false, fmt.Errorf("xbar: train step %d names PoE %d of %d", s, o, len(poes))
			}
			if c := classes[s]; c < 0 || c >= device.NumPulses {
				return false, fmt.Errorf("xbar: pulse class %d out of range", c)
			}
			if err := cal.ensure(poes[o]); err != nil {
				return false, err
			}
		}
	}
	x.pulses.bind(cal, poes)
	if hit && !inverse && x.trace == nil {
		for w := range x.packed {
			x.packed[w] = binary.LittleEndian.Uint64(r.buf[8*w:])
		}
		sigma := r.buf[8*nw:]
		for s, o := range order {
			x.pulses.chargeAt(o, int(binary.LittleEndian.Uint16(sigma[3*s:])))
		}
		r.inverse = false
		return true, nil
	}
	if !hit {
		r.record(cal, poes, order, classes, nw)
	}
	if inverse {
		for w, v := range x.packed {
			binary.LittleEndian.PutUint64(r.buf[8*w:], v)
		}
	}
	idx := r.buf[8*nw+3*n:]
	if inverse {
		for s := n - 1; s >= 0; s-- {
			o := order[s]
			pi := cal.poeIndex(poes[o])
			pc := &cal.poes[pi]
			at := idx[len(idx)-len(pc.shape):]
			x.pulse(pc, pi, InverseClass(classes[s]), at, !hit)
			x.pulses.chargeAt(o, pi)
			idx = idx[:len(idx)-len(pc.shape)]
		}
	} else {
		for s, o := range order {
			pi := cal.poeIndex(poes[o])
			pc := &cal.poes[pi]
			x.pulse(pc, pi, classes[s], idx, !hit)
			x.pulses.chargeAt(o, pi)
			idx = idx[len(pc.shape):]
		}
	}
	r.inverse = inverse
	return false, nil
}

// matches reports whether the record, on a crossbar of nw packed words,
// holds σ = (poes[order[s]], classes[s]) per step under cal, run in
// direction inverse.
func (r *trainRecord) matches(cal *Calibration, poes []Cell, order, classes []int, inverse bool, nw int) bool {
	if r.cal != cal || int(r.steps) != len(order) || r.inverse != inverse {
		return false
	}
	sigma := r.buf[8*nw:][:3*len(order)]
	classes = classes[:len(order)]
	for s, o := range order {
		if uint(o) >= uint(len(poes)) {
			return false
		}
		e := sigma[3*s : 3*s+3]
		if int(binary.LittleEndian.Uint16(e)) != cal.poeIndex(poes[o]) || int(e[2]) != classes[s] {
			return false
		}
	}
	return true
}

// record replaces the record with σ of a new train on a crossbar of nw
// packed words, reusing the buffer when it is long enough and sizing the
// sums scratch for the train's largest polyomino. The start words and
// indices are left for the train to fill.
func (r *trainRecord) record(cal *Calibration, poes []Cell, order, classes []int, nw int) {
	sumS, maxS := 0, 0
	for _, o := range order {
		sh := len(cal.poes[cal.poeIndex(poes[o])].shape)
		sumS, maxS = sumS+sh, max(maxS, sh)
	}
	n := len(order)
	need := 8*nw + 3*n + sumS
	if cap(r.buf) < need {
		r.buf = make([]byte, need)
	}
	r.buf = r.buf[:need]
	if len(r.sums) < maxS {
		r.sums = make([]int64, maxS)
	}
	for s, o := range order {
		e := r.buf[8*nw+3*s:]
		binary.LittleEndian.PutUint16(e, uint16(cal.poeIndex(poes[o])))
		e[2] = uint8(classes[s])
	}
	r.cal, r.steps = cal, int32(n)
}
