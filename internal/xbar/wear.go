package xbar

import "math/bits"

// Pulse wear. A WriteBlock charges every cell one pulse and a pulse at a
// PoE charges every cell of the PoE's calibrated polyomino one pulse, so a
// cell's wear is the program count plus the pulse counts of the PoEs whose
// shape holds it. The crossbar keeps those counts, one per PoE it has been
// pulsed at, and derives the per-cell wear when asked (Wear): a pulse
// costs one increment and a restoring train one per step, whatever the
// shape sizes.

// wearState is a crossbar's pulse wear. programs counts WriteBlocks.
//
// tab holds the PoE table in one buffer, sized at first use: c pulse
// counts, then the c entries' PoE linear cell indices as uint16, four to
// a word, so len(tab) = c + ceil(c/4) and c = 4·len(tab)/5. An entry
// whose index is emptyPoE is free, and so is every lane past c. A train
// that finds no table lays one out for its PoE list, entry k for PoE
// poes[k], so its steps find their entries by position (chargeAt); other
// PoEs take the first free entry. The counts are charged under the
// shapes of cal. A pulse under another calibration first folds the
// per-cell wear the table stands for into base, allocated then, and
// zeroes the counts (bind); base is nil until a crossbar is pulsed under
// a second calibration.
type wearState struct {
	programs uint64
	cal      *Calibration
	tab      []uint64
	base     *[]uint64 // a pointer: a crossbar that never folds pays one word
}

// emptyPoE is a free entry's index; maxPulseCells keeps it from naming a
// cell.
const emptyPoE = 0xFFFF

// lanes has a one in each 16-bit lane of a word of PoE indices.
const lanes = 0x0001_0001_0001_0001

// slots returns the table's capacity c.
func (w *wearState) slots() int { return 4 * len(w.tab) / 5 }

// key returns the PoE index of entry k of a table of c entries.
func (w *wearState) key(c, k int) int { return int(uint16(w.tab[c+k/4] >> (16 * uint(k%4)))) }

// setKey makes pi the PoE index of entry k of a table of c entries.
func (w *wearState) setKey(c, k, pi int) {
	sh := 16 * uint(k%4)
	w.tab[c+k/4] = w.tab[c+k/4]&^(emptyPoE<<sh) | uint64(pi)<<sh
}

// bind makes cal the calibration the next charges count under and, when
// there is no table, lays one out for poes (one free entry when poes is
// empty). Counts charged under another calibration are folded into the
// per-cell base first.
func (w *wearState) bind(cal *Calibration, poes []Cell) {
	if w.cal != cal {
		if w.cal != nil {
			if w.base == nil {
				base := make([]uint64, w.cal.cfg.Cells())
				w.base = &base
			}
			w.addPulses(*w.base)
			clear(w.tab[:w.slots()])
		}
		w.cal = cal
	}
	if len(w.tab) == 0 {
		w.grow(max(len(poes), 1))
		c := w.slots()
		for k, p := range poes {
			if pi := cal.poeIndex(p); pi >= 0 {
				w.setKey(c, k, pi)
			}
		}
	}
}

// chargeAt counts one pulse at the PoE pi, which a train over the PoE
// list the table was laid out for finds at entry k: a check that is
// always taken on a crossbar's own trains, so it costs no misprediction.
// Otherwise it looks pi up (charge).
func (w *wearState) chargeAt(k, pi int) {
	if c := w.slots(); k < c && w.key(c, k) == pi {
		w.tab[k]++
		return
	}
	w.charge(pi)
}

// charge counts one pulse at the PoE pi, taking the first free entry for
// it, and twice the capacity (four entries at least) when there is none.
func (w *wearState) charge(pi int) {
	c := w.slots()
	k := w.find(c, pi)
	if k < 0 {
		if k = w.find(c, emptyPoE); k < 0 {
			w.grow(max(2*c, 4))
			c = w.slots()
			k = w.find(c, emptyPoE)
		}
		w.setKey(c, k, pi)
	}
	w.tab[k]++
}

// find returns the first entry of a table of c entries whose index is
// x, or -1. It compares four indices per word: the lowest lane of a word
// that the borrow test flags holds x.
func (w *wearState) find(c, x int) int {
	pat := uint64(x) * lanes
	for j, v := range w.tab[c:] {
		v ^= pat
		if m := (v - lanes) &^ v & (lanes << 15); m != 0 {
			if k := 4*j + bits.TrailingZeros64(m)/16; k < c {
				return k
			}
			return -1
		}
	}
	return -1
}

// grow moves the table into a buffer of c entries, c above its capacity.
// Entry k's index sits in lane k%4 of the k/4-th index word at any
// capacity, so the index words move as they are; the new lanes are free.
func (w *wearState) grow(c int) {
	old, oc := w.tab, w.slots()
	w.tab = make([]uint64, c+(c+3)/4)
	copy(w.tab, old[:oc])
	for j := range w.tab[c:] {
		w.tab[c+j] = ^uint64(0)
	}
	copy(w.tab[c:], old[oc:])
}

// addPulses adds to per-cell wear out each table entry's count at the
// cells of its PoE's shape.
func (w *wearState) addPulses(out []uint64) {
	c := w.slots()
	for k, n := range w.tab[:c] {
		if n != 0 {
			for _, i := range w.cal.poes[w.key(c, k)].shapeIdx {
				out[i] += n
			}
		}
	}
}

// Wear returns the per-cell pulse counts: the program count, plus the
// counts of the PoEs whose calibrated shape holds the cell, plus what was
// folded in under earlier calibrations. The table is empty until cal is
// bound, so an unpulsed crossbar reads its program count alone.
func (x *Crossbar) Wear() []uint64 {
	w := &x.pulses
	out := make([]uint64, x.Cfg.Cells())
	if w.base != nil {
		copy(out, *w.base)
	}
	for i := range out {
		out[i] += w.programs
	}
	w.addPulses(out)
	return out
}

// TotalWear returns the sum of Wear over every cell, without the per-cell
// copy: the program count times the cell count, plus each PoE's count
// times its shape size, plus the folded base.
func (x *Crossbar) TotalWear() uint64 {
	w := &x.pulses
	total := w.programs * uint64(x.Cfg.Cells())
	if w.base != nil {
		for _, v := range *w.base {
			total += v
		}
	}
	c := w.slots()
	for k, n := range w.tab[:c] {
		if n != 0 {
			total += n * uint64(len(w.cal.poes[w.key(c, k)].shapeIdx))
		}
	}
	return total
}
