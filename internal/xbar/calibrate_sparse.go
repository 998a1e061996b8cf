package xbar

import (
	"fmt"
	"math"
	"sync"

	"snvmm/internal/circuit"
)

// The sketch characterization path. The legacy dense path factors one
// driven network per PoE — O(n^3) in the unknown count, per PoE — which is
// the size wall that kept 16x16 cold characterization at ~7 s and made
// 32x32 unreachable. Here the device's sneak network is factored exactly
// once in its floating form (every terminal on its keeper), Green-function
// tables are precomputed against one probe pair per cell plus one single
// per terminal (circuit.ProbeSketch), and each PoE's pulse drive becomes a
// rank-2 pinned constraint: every base drop, Sherman–Morrison denominator
// and perturbed drop the sensitivity sweep needs is then O(1) table
// arithmetic. Per-PoE cost scales with the swept neighbourhood size — which
// TruncationTol/TruncationRadius bound — instead of with device size.

// defaultTruncationTol is the bit-exactness tolerance: half the 2^-40
// fixed-point weight quantum. A weight below it quantizes to zero, so
// truncating the cell cannot change any deviation sum bit.
const defaultTruncationTol = 0x1p-41

// tertileZ is the standard normal z with Phi(z) = 2/3 — the analytic
// tertile edge used by the sketch path's CLT band placement.
var tertileZ = math.Sqrt2 * math.Erfinv(1.0/3.0)

// calSketch is the lazily built per-device shared state of the sketch path.
type calSketch struct {
	once sync.Once
	err  error
	sk   *circuit.ProbeSketch
	// dg is the per-cell edge conductance delta of the +sensDelta state
	// perturbation used by the finite-difference sweep.
	dg []float64
	// scratch pools *hierScratch per-PoE sweep transients across the
	// device's cells builds (hierarchical backend only).
	scratch sync.Pool
}

// sketch builds (once) and returns the shared device sketch.
func (c *Calibration) sketch() (*circuit.ProbeSketch, []float64, error) {
	c.sk.once.Do(func() {
		c.sk.err = c.buildDeviceSketch(c.cfg.Shape == ShapePaper && c.xb.totalNodes()-1 > hierUnknownCutoff)
	})
	return c.sk.sk, c.sk.dg, c.sk.err
}

// buildDeviceSketch factors the device's floating sneak network and builds
// its Green tables: hierarchical (nested-dissection order, truncation-
// sparse tables) when hier is set, dense otherwise. sketch sets hier for
// ShapePaper devices above hierUnknownCutoff unknowns; ShapeVoltage shapes
// have no analytic reach to derive the sparsity from, so they stay dense.
func (c *Calibration) buildDeviceSketch(hier bool) error {
	cfg := c.cfg
	cells := cfg.Cells()
	midR := c.xb.midR()
	nw, _, err := c.xb.buildFloatingNetwork(midR)
	if err != nil {
		return err
	}
	pairs := make([]circuit.ProbePair, cells)
	for i := 0; i < cells; i++ {
		cell := cfg.CellAt(i)
		pairs[i] = circuit.ProbePair{
			A: c.xb.rowNode(cell.Row, cell.Col),
			B: c.xb.colNode(cell.Row, cell.Col),
		}
	}
	singles := make([]int, cfg.Rows+cfg.Cols)
	for r := 0; r < cfg.Rows; r++ {
		singles[r] = c.xb.rowTerm(r)
	}
	for col := 0; col < cfg.Cols; col++ {
		singles[cfg.Rows+col] = c.xb.colTerm(col)
	}
	var opt circuit.SketchOptions
	if hier {
		if cfg.Shape != ShapePaper {
			return fmt.Errorf("xbar: hierarchical characterization needs ShapePaper")
		}
		opt.Order = c.xb.dissectionOrder()
		opt.Sparsity = c.buildHierSparsity()
	}
	sk, err := nw.FactorSketch(pairs, singles, opt)
	if err != nil {
		return err
	}
	dg := make([]float64, cells)
	for i := 0; i < cells; i++ {
		pr := c.xb.params[i]
		rPert := pr.ROn + (pr.ROff-pr.ROn)*(0.5+sensDelta)
		dg[i] = 1/(rPert+cfg.RAccess) - 1/(midR[i]+cfg.RAccess)
	}
	c.sk.sk = sk
	c.sk.dg = dg
	return nil
}

// chebDist is the Chebyshev (ring) distance between two cells.
func chebDist(a, b Cell) int {
	dr, dc := a.Row-b.Row, a.Col-b.Col
	if dr < 0 {
		dr = -dr
	}
	if dc < 0 {
		dc = -dc
	}
	if dc > dr {
		return dc
	}
	return dr
}

// ringCells visits the in-bounds cells at exactly Chebyshev distance r from
// the PoE in a fixed deterministic order (row-major around the ring),
// calling visit with each linear cell index until it returns false.
func ringCells(cfg Config, poe Cell, r int, visit func(m int) bool) {
	if r == 0 {
		visit(cfg.Index(poe))
		return
	}
	for dr := -r; dr <= r; dr++ {
		row := poe.Row + dr
		if row < 0 || row >= cfg.Rows {
			continue
		}
		if dr == -r || dr == r {
			for dc := -r; dc <= r; dc++ {
				col := poe.Col + dc
				if col < 0 || col >= cfg.Cols {
					continue
				}
				if !visit(row*cfg.Cols + col) {
					return
				}
			}
			continue
		}
		for _, dc := range [2]int{-r, r} {
			col := poe.Col + dc
			if col < 0 || col >= cfg.Cols {
				continue
			}
			if !visit(row*cfg.Cols + col) {
				return
			}
		}
	}
}

// buildSketch characterizes one PoE from the shared device sketch with a
// locality-truncated sensitivity sweep: complement cells are visited in
// growing Chebyshev rings around the PoE, and the sweep stops once a
// completed ring beyond the polyomino contributes only weights below
// TruncationTol (the paper's Fig. 4 decay makes farther rings weaker
// still). At the default tolerance a dropped weight would have quantized to
// zero anyway, so the fixed-point deviations are bit-identical to the
// untruncated sweep.
func (c *Calibration) buildSketch(poe Cell, pc *poeCal) error {
	cfg := c.cfg
	cells := cfg.Cells()
	shape, err := c.xb.Shape(poe)
	if err != nil {
		return err
	}
	if len(shape) == 0 {
		return fmt.Errorf("xbar: PoE %+v has empty polyomino", poe)
	}
	inShape := make([]bool, cells)
	shapeRad := 0
	for _, cell := range shape {
		inShape[cfg.Index(cell)] = true
		if d := chebDist(cell, poe); d > shapeRad {
			shapeRad = d
		}
	}
	sk, dg, err := c.sketch()
	if err != nil {
		return err
	}
	tol := cfg.TruncationTol
	if tol <= 0 {
		tol = defaultTruncationTol
	}
	fullRad := max(max(poe.Row, cfg.Rows-1-poe.Row), max(poe.Col, cfg.Cols-1-poe.Col))
	maxRad := fullRad
	if cfg.TruncationRadius > 0 && cfg.TruncationRadius < maxRad {
		maxRad = cfg.TruncationRadius
	}
	// Pin the pulse drive: this PoE's row terminal at +VDrive, column
	// terminal at -VDrive (singles are laid out rows first). On the
	// hierarchical backend the sweep radius is capped — its Green tables
	// only exist inside the truncation sparsity — and the pin is windowed
	// to the swept ball plus the polyomino, so per-PoE transient state is
	// O(window), not O(cells).
	hier := sk.Backend() == circuit.SketchHier
	var pin *circuit.PinnedSketch
	var window, winPos []int32
	var scr *hierScratch
	width := cells
	if hier {
		if rt := c.hierTruncRadius(); rt < maxRad {
			maxRad = rt
		}
		scr, _ = c.sk.scratch.Get().(*hierScratch)
		if scr == nil {
			scr = &hierScratch{}
		}
		defer c.sk.scratch.Put(scr)
		window, winPos = hierWindow(scr, cfg, poe, inShape, maxRad)
		width = len(window)
		pin, err = sk.PinWindow([]int{poe.Row, cfg.Rows + poe.Col}, []float64{cfg.VDrive, -cfg.VDrive}, window)
	} else {
		pin, err = sk.Pin([]int{poe.Row, cfg.Rows + poe.Col}, []float64{cfg.VDrive, -cfg.VDrive})
	}
	if err != nil {
		return err
	}
	base := make([]float64, len(shape))
	sidx := make([]int, len(shape))
	for k, cell := range shape {
		sidx[k] = cfg.Index(cell)
		base[k] = abs(pin.BaseDiff(sidx[k]))
	}
	maxW := int64((uint64(1)<<53 - 1) / uint64(3*cells))
	var wdense [][]int64
	if hier {
		wdense = scr.weightSlab(len(shape), width)
	} else {
		wdense = make([][]int64, len(shape))
		for k := range wdense {
			wdense[k] = make([]int64, width)
		}
	}
	visited := 0
	var buildErr error
	for r := 0; r <= maxRad; r++ {
		ringMax := 0.0
		swept := false
		ringCells(cfg, poe, r, func(m int) bool {
			if inShape[m] {
				return true
			}
			swept = true
			visited++
			col := m
			if hier {
				col = int(winPos[m])
			}
			scale, perr := pin.PerturbScale(m, dg[m])
			if perr != nil {
				buildErr = perr
				return false
			}
			for k := range shape {
				diff := pin.BaseDiff(sidx[k]) - scale*pin.Quad(sidx[k], m)
				w := (abs(diff) - base[k]) / sensDelta
				if aw := abs(w); aw > ringMax {
					ringMax = aw
				}
				wq := int64(math.Round(w * (1 << devWeightBits)))
				if wq > maxW || wq < -maxW {
					buildErr = fmt.Errorf("xbar: PoE %+v sensitivity %g overflows the fixed-point weight grid", poe, w)
					return false
				}
				wdense[k][col] = wq
			}
			return true
		})
		if buildErr != nil {
			return buildErr
		}
		if swept && r > shapeRad && ringMax < tol {
			break
		}
	}
	if t := xtel.Load(); t != nil {
		t.cellsVisited.Add(int64(visited))
		t.cellsSkipped.Add(int64(cells - len(shape) - visited))
	}
	var compIdx []int32
	var wT []int64
	if hier {
		compIdx, wT = flattenSensitivitiesWindowed(inShape, window, wdense)
	} else {
		compIdx, wT = flattenSensitivities(cells, inShape, wdense)
	}
	// Band edges from the CLT instead of the legacy 512-sample Monte Carlo:
	// over uniform random data the deviation sum is a sum of
	// independent w*q terms with q uniform on {-3,-1,1,3} (zero mean,
	// E[q^2] = 5), so its tertiles sit at ±z·sigma with Phi(z) = 2/3. At
	// 32x32 the sampling alternative would cost ~cells draws per sample per
	// shape cell — billions of RNG calls per device.
	edges := make([][2]float64, len(shape))
	for k := range shape {
		var s2 float64
		for j := range compIdx {
			w := float64(wT[j*len(shape)+k])
			s2 += w * w
		}
		sigma := math.Sqrt(5*s2) * devInvScale
		if sigma < 1e-15 { // degenerate: no data sensitivity at this cell
			edges[k] = [2]float64{-1e300, 1e300}
		} else {
			edges[k] = [2]float64{-tertileZ * sigma, tertileZ * sigma}
		}
	}
	pc.shape = shape
	pc.inShape = inShape
	pc.base = base
	pc.compIdx = compIdx
	pc.wT = wT
	pc.edges = edges
	return nil
}
