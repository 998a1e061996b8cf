package xbar

import (
	"snvmm/internal/circuit"
)

// The hierarchical characterization path (CharHier, and CharAuto/CharSparse
// above hierUnknownCutoff unknowns). The crossbar's sneak network is a
// Rows x Cols grid of (row-junction, column-junction) vertex pairs: row
// wires chain row junctions along a row, column wires chain column
// junctions along a column, and each cell's memristor+access edge bridges
// the pair. That regularity makes nested-dissection separators analytic —
// no graph-partitioning heuristics — and the resulting elimination order
// gives the supernodal sparse Cholesky (linalg.FactorSparse) near-linear
// fill, which is what breaks the dense backend's O(n^2) factor memory and
// O(n^2 * np) probe cost at 48x48/64x64.
//
// The same grid structure bounds which Green-table entries the calibration
// sweep can ever read: the sweep visits Chebyshev rings around the PoE up
// to the truncation radius, and the polyomino extends at most
// max(VertReach, HorizReach) further. buildHierSparsity turns those radii
// into the block-sparse W/C table pattern, so table memory scales with the
// truncation neighbourhood instead of with device size.

// defaultHierRadius is the hierarchical path's sweep/truncation radius when
// Config.TruncationRadius is zero. Measured at 32x32 paper parameters the
// sensitivity weights plateau around 2^-7..2^-10 V/state out to the array
// edge (long-range sneak coupling; see DESIGN.md), so unlike the adaptive
// tolerance sweep a radius cap is a real approximation: 8 (= 2*VertReach)
// keeps every weight above ~1e-2 V/state of the strongest dropped ring
// while bounding per-PoE work and table fill by a constant.
const defaultHierRadius = 8

// hierUnknownCutoff is the unknown count above which CharAuto/CharSparse
// supply ordering and sparsity hints so the sketch auto-selects the
// hierarchical backend. It matches the circuit layer's default HierLimit:
// 16x16 (544 unknowns) stays on the bit-stable dense backend, 24x24 (1200)
// and up go hierarchical.
const hierUnknownCutoff = 1024

// hierTruncRadius is the effective Chebyshev sweep radius of the
// hierarchical path.
func (c *Calibration) hierTruncRadius() int {
	if c.cfg.TruncationRadius > 0 {
		return c.cfg.TruncationRadius
	}
	return defaultHierRadius
}

// dissectionOrder returns the nested-dissection elimination order over the
// floating sneak network's unknowns (node-1 space; ground is eliminated).
//
// Terminals go first: after the keeper's ground end is eliminated each is a
// degree-1 pendant whose elimination causes no fill. Then the grid region
// is cut recursively: a vertical cut at column cm removes that column's row
// junctions (the only vertices carrying row wires across the cut), with the
// column's column junctions as a middle strip that touches only the
// separator; a horizontal cut at row rm is the transpose. Children are
// emitted first, then the middle strip, then the separator — so separators
// are eliminated last and become the top supernodes of the etree.
func (x *Crossbar) dissectionOrder() []int {
	cfg := x.Cfg
	order := make([]int, 0, x.totalNodes()-1)
	push := func(node int) { order = append(order, node-1) }
	for r := 0; r < cfg.Rows; r++ {
		push(x.rowTerm(r))
	}
	for c := 0; c < cfg.Cols; c++ {
		push(x.colTerm(c))
	}
	var rec func(r0, r1, c0, c1 int)
	rec = func(r0, r1, c0, c1 int) {
		h, w := r1-r0, c1-c0
		if h <= 0 || w <= 0 {
			return
		}
		if h*w <= 4 {
			for r := r0; r < r1; r++ {
				for c := c0; c < c1; c++ {
					push(x.rowNode(r, c))
					push(x.colNode(r, c))
				}
			}
			return
		}
		if w >= h {
			cm := c0 + w/2
			rec(r0, r1, c0, cm)
			rec(r0, r1, cm+1, c1)
			for r := r0; r < r1; r++ {
				push(x.colNode(r, cm)) // middle strip: touches separator only
			}
			for r := r0; r < r1; r++ {
				push(x.rowNode(r, cm)) // separator: carries the crossing row wires
			}
		} else {
			rm := r0 + h/2
			rec(r0, rm, c0, c1)
			rec(rm+1, r1, c0, c1)
			for c := c0; c < c1; c++ {
				push(x.rowNode(rm, c))
			}
			for c := c0; c < c1; c++ {
				push(x.colNode(rm, c))
			}
		}
	}
	rec(0, cfg.Rows, 0, cfg.Cols)
	return order
}

// buildHierSparsity derives the block-sparse Green-table pattern from the
// truncation radius and the polyomino reach. With rhoT the sweep radius and
// reach the polyomino's Chebyshev extent, the sweep queries
//
//	W[shape cell][swept cell]  ->  chebDist <= rhoT + reach   (rhoW)
//	W[swept cell][swept cell]  ->  the diagonal
//	C[terminal][window cell]   ->  |row or col offset| <= max(rhoT, reach) (rhoC)
//
// so those balls are exactly what gets materialized. Rows are ascending
// cell indices; PairRows is symmetric by construction (chebDist is).
func (c *Calibration) buildHierSparsity() *circuit.SketchSparsity {
	cfg := c.cfg
	cells := cfg.Cells()
	rhoT := c.hierTruncRadius()
	reach := cfg.VertReach
	if cfg.HorizReach > reach {
		reach = cfg.HorizReach
	}
	rhoW := rhoT + reach
	rhoC := rhoT
	if reach > rhoC {
		rhoC = reach
	}
	sp := &circuit.SketchSparsity{
		PairRows:   make([][]int32, cells),
		SingleRows: make([][]int32, cfg.Rows+cfg.Cols),
	}
	clip := func(v, lim int) (int, int) {
		lo, hi := v-rhoW, v+rhoW
		if lo < 0 {
			lo = 0
		}
		if hi > lim-1 {
			hi = lim - 1
		}
		return lo, hi
	}
	for i := 0; i < cells; i++ {
		cell := cfg.CellAt(i)
		r0, r1 := clip(cell.Row, cfg.Rows)
		c0, c1 := clip(cell.Col, cfg.Cols)
		row := make([]int32, 0, (r1-r0+1)*(c1-c0+1))
		for r := r0; r <= r1; r++ {
			for cc := c0; cc <= c1; cc++ {
				row = append(row, int32(r*cfg.Cols+cc))
			}
		}
		sp.PairRows[i] = row
	}
	for r := 0; r < cfg.Rows; r++ {
		lo, hi := r-rhoC, r+rhoC
		if lo < 0 {
			lo = 0
		}
		if hi > cfg.Rows-1 {
			hi = cfg.Rows - 1
		}
		row := make([]int32, 0, (hi-lo+1)*cfg.Cols)
		for rr := lo; rr <= hi; rr++ {
			for cc := 0; cc < cfg.Cols; cc++ {
				row = append(row, int32(rr*cfg.Cols+cc))
			}
		}
		sp.SingleRows[r] = row
	}
	for col := 0; col < cfg.Cols; col++ {
		lo, hi := col-rhoC, col+rhoC
		if lo < 0 {
			lo = 0
		}
		if hi > cfg.Cols-1 {
			hi = cfg.Cols - 1
		}
		row := make([]int32, 0, cfg.Rows*(hi-lo+1))
		for rr := 0; rr < cfg.Rows; rr++ {
			for cc := lo; cc <= hi; cc++ {
				row = append(row, int32(rr*cfg.Cols+cc))
			}
		}
		sp.SingleRows[cfg.Rows+col] = row
	}
	return sp
}

// hierScratch is the pooled per-PoE transient state of the hierarchical
// sweep. A full-device characterization runs cells builds back to back;
// recycling these buffers keeps cold-characterization allocation bounded by
// the persistent calibration records instead of by per-PoE churn.
type hierScratch struct {
	window []int32
	winPos []int32
	wslab  []int64
}

// hierWindow builds one PoE's pin window into the scratch: the Chebyshev
// ball the truncated sweep visits, united with the polyomino (whose base
// drops the sweep also reads). Returns the ascending cell-index window and
// its cells-length inverse (-1 outside).
func hierWindow(scr *hierScratch, cfg Config, poe Cell, inShape []bool, maxRad int) (window, winPos []int32) {
	cells := cfg.Cells()
	if cap(scr.winPos) < cells {
		scr.winPos = make([]int32, cells)
	}
	winPos = scr.winPos[:cells]
	r0, r1 := poe.Row-maxRad, poe.Row+maxRad
	if r0 < 0 {
		r0 = 0
	}
	if r1 > cfg.Rows-1 {
		r1 = cfg.Rows - 1
	}
	c0, c1 := poe.Col-maxRad, poe.Col+maxRad
	if c0 < 0 {
		c0 = 0
	}
	if c1 > cfg.Cols-1 {
		c1 = cfg.Cols - 1
	}
	window = scr.window[:0]
	for m := 0; m < cells; m++ {
		r, cc := m/cfg.Cols, m%cfg.Cols
		if (r >= r0 && r <= r1 && cc >= c0 && cc <= c1) || inShape[m] {
			winPos[m] = int32(len(window))
			window = append(window, int32(m))
		} else {
			winPos[m] = -1
		}
	}
	scr.window = window
	return window, winPos
}

// weightSlab returns a zeroed rows x width weight table carved from the
// pooled slab.
func (scr *hierScratch) weightSlab(rows, width int) [][]int64 {
	need := rows * width
	if cap(scr.wslab) < need {
		scr.wslab = make([]int64, need)
	}
	slab := scr.wslab[:need]
	for i := range slab {
		slab[i] = 0
	}
	out := make([][]int64, rows)
	for k := range out {
		out[k] = slab[k*width : (k+1)*width]
	}
	return out
}

// flattenSensitivitiesWindowed is flattenSensitivities for a window-indexed
// weight table: wwin[k] is aligned with window, and only window cells can
// carry weight. The output layout is identical (ascending compIdx) so
// every calibration consumer is path-agnostic.
func flattenSensitivitiesWindowed(inShape []bool, window []int32, wwin [][]int64) (compIdx []int32, wT []int64) {
	keep := make([]int32, 0, len(window)) // window positions kept, ascending
	for p, m := range window {
		if inShape[m] {
			continue
		}
		for k := range wwin {
			if wwin[k][p] != 0 {
				compIdx = append(compIdx, m)
				keep = append(keep, int32(p))
				break
			}
		}
	}
	s := len(wwin)
	wT = make([]int64, len(compIdx)*s)
	for j, p := range keep {
		for k := range wwin {
			wT[j*s+k] = wwin[k][p]
		}
	}
	return compIdx, wT
}
