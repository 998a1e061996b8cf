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
// The calibration may be shared across crossbars and goroutines; the
// crossbar itself (levels, wear, tracker) must be externally serialized, as
// before. While no cell outside the polyomino changed since the PoE's last
// pulse, a pulse of the same width reuses that pulse's permutation
// indices; otherwise the sneak-voltage deviations feeding the permutation
// choice are summed afresh from the packed levels (devTracker.perms).
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
	pidx := cal.poeIndex(poe)
	pc := &cal.poes[pidx]
	t := x.tracker(cal)
	width := class % device.NumWidths
	negative := class >= device.NumWidths
	if x.trace != nil {
		// The supply-rail observable is defined by the pre-pulse operating
		// point: the sneak voltages the driver sustains while the cells
		// drift, summed here before any level changes.
		x.emitTrace(pc, t.sumsAt(pc, x), width, negative)
	}
	pis := t.perms(pc, pidx, width, x)
	for k, ci := range pc.shapeIdx {
		i := int(ci)
		pi := pis[k]
		old := x.level(i)
		nl := perms[pi][old]
		if negative {
			nl = invPerms[pi][old]
		}
		if nl != old {
			x.setLevel(i, nl)
		}
		x.wear[i]++
	}
	return nil
}

// checkCal reports an error unless cal was built for the crossbar's
// geometry.
func (x *Crossbar) checkCal(cal *Calibration) error {
	if cal.cfg.Rows != x.Cfg.Rows || cal.cfg.Cols != x.Cfg.Cols {
		return fmt.Errorf("xbar: calibration geometry %dx%d does not match crossbar %dx%d",
			cal.cfg.Rows, cal.cfg.Cols, x.Cfg.Rows, x.Cfg.Cols)
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
