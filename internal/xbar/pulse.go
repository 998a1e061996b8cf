package xbar

import (
	"fmt"

	"snvmm/internal/device"
)

// The quantized pulse layer. A pulse is identified by its class in
// [0, device.NumPulses): classes 0..15 are +1 V pulses of increasing width,
// classes 16..31 the -1 V counterparts. Applying class w+16 is the physical
// inverse of class w (opposite polarity, hysteresis-calibrated width), which
// the level permutations mirror exactly.

// permutations of {0,1,2,3} in lexicographic order; perms[0] is the
// identity. Generated once at package init.
var perms = allPerms()
var invPerms = invertAll(perms)

func allPerms() [][4]int {
	var out [][4]int
	var rec func(cur []int, used [4]bool)
	rec = func(cur []int, used [4]bool) {
		if len(cur) == 4 {
			var p [4]int
			copy(p[:], cur)
			out = append(out, p)
			return
		}
		for v := 0; v < 4; v++ {
			if !used[v] {
				used[v] = true
				rec(append(cur, v), used)
				used[v] = false
			}
		}
	}
	rec(nil, [4]bool{})
	return out
}

func invertAll(ps [][4]int) [][4]int {
	out := make([][4]int, len(ps))
	for i, p := range ps {
		var inv [4]int
		for a, b := range p {
			inv[b] = a
		}
		out[i] = inv
	}
	return out
}

// permIndex selects the level permutation a cell undergoes for a given
// positive pulse width class (0..15), the cell's voltage mixing word, and
// the cell position. The mapping is a fixed hardware property — the key
// influences it only through the pulse class and PoE sequence; the data
// influences it through the mixer (the comparator-resolution sneak
// voltage).
func permIndex(width int, mixer uint64, cellIdx int) int {
	h := mixer ^ uint64(width)*0x9E3779B97F4A7C15 ^ uint64(cellIdx)*0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return int(h % uint64(len(perms)))
}

// ApplyPulse applies pulse class `class` at the PoE: every cell in the
// calibrated polyomino maps its level through the permutation selected by
// (width class, solved sneak voltage, position). Negative-polarity classes
// (>= 16) apply the inverse permutation of their positive counterpart —
// the hysteresis-matched decrypt pulse.
//
// It is the single-pulse primitive: the sneak-voltage deviations feeding
// the permutation choice are summed afresh from the packed levels on every
// call, and the crossbar's train record is voided. Whole keyed sequences
// go through Train. The calibration may be shared across crossbars and
// goroutines; the crossbar itself (levels, wear, train record) must be
// externally serialized.
func (x *Crossbar) ApplyPulse(cal *Calibration, poe Cell, class int) error {
	if class < 0 || class >= device.NumPulses {
		return fmt.Errorf("xbar: pulse class %d out of range", class)
	}
	if err := x.checkCal(cal); err != nil {
		return err
	}
	if err := cal.ensure(poe); err != nil {
		return err
	}
	x.rec.forget()
	pi := cal.poeIndex(poe)
	x.pulse(&cal.poes[pi], pi, class, nil, true)
	x.pulses.bind(cal, nil)
	x.pulses.charge(pi)
	return nil
}

// pulse applies one pulse of the class at the PoE calibrated by pc (linear
// index pi): every shape cell k maps its level through permutation idx[k],
// or its inverse for a negative class; the caller charges the wear. When
// derive is set the indices are first derived from the dense sums at the
// current levels, into idx unless it is nil. An attached trace sink is fed
// the pre-pulse sums either way.
func (x *Crossbar) pulse(pc *poeCal, pi, class int, idx []uint8, derive bool) {
	width := class % device.NumWidths
	negative := class >= device.NumWidths
	var sums []int64
	if derive || x.trace != nil {
		sums = x.rec.sumsAt(pc, x.packed)
	}
	if x.trace != nil {
		// The supply-rail observable is defined by the pre-pulse operating
		// point: the sneak voltages the driver sustains while the cells
		// drift, summed here before any level changes.
		x.emitTrace(pc, sums, width, negative)
	}
	for k, ci := range pc.shapeIdx {
		i := int(ci)
		var p uint8
		if derive {
			p = uint8(permIndex(width, pc.mixer(pi, k, sums[k]), i))
			if idx != nil {
				idx[k] = p
			}
		} else {
			p = idx[k]
		}
		old := x.level(i)
		nl := perms[p][old]
		if negative {
			nl = invPerms[p][old]
		}
		if nl != old {
			x.setLevel(i, nl)
		}
	}
}

// checkCal reports an error unless cal was built for the crossbar's
// geometry and the crossbar is small enough to pulse (maxPulseCells).
func (x *Crossbar) checkCal(cal *Calibration) error {
	if cal.cfg.Rows != x.Cfg.Rows || cal.cfg.Cols != x.Cfg.Cols {
		return fmt.Errorf("xbar: calibration geometry %dx%d does not match crossbar %dx%d",
			cal.cfg.Rows, cal.cfg.Cols, x.Cfg.Rows, x.Cfg.Cols)
	}
	if cells := x.Cfg.Cells(); cells > maxPulseCells {
		return fmt.Errorf("xbar: a pulse names at most %d cells, crossbar has %d", maxPulseCells, cells)
	}
	return nil
}

// InverseClass returns the pulse class that physically undoes `class`: the
// opposite-polarity pulse of hysteresis-calibrated width.
func InverseClass(class int) int {
	if class >= device.NumWidths {
		return class - device.NumWidths
	}
	return class + device.NumWidths
}
