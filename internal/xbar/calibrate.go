package xbar

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"snvmm/internal/circuit"
	"snvmm/internal/device"
)

// Calibration holds the per-PoE data the SPECU characterizes once per
// fabrication identity: the polyomino shape, the baseline sneak voltage of
// each shape cell at the mid state, the linearized sensitivity of that
// voltage to the state of every cell outside the polyomino, and the band
// edges that quantize the resulting voltage deviation into the three
// strength classes.
//
// During a pulse the voltage across a polyomino cell is modelled as
//
//	v = base + sum_m w[m] * (x_m - 0.5)    (m ranges over complement cells)
//
// where x_m is the state of complement cell m. Because the complement of a
// polyomino is untouched by its own pulse, this quantity is bit-identical
// when the pulse is undone during decryption, which makes the quantized
// encryption exactly invertible while remaining data- and
// hardware-dependent (Section 6.1's avalanche experiments).
//
// The sensitivities are quantized at calibration time to the fixed-point
// grid 2^-devWeightBits (the comparator bank that reads them out has finite
// resolution anyway). With (x_m - 0.5) = (2*level - 3)/8, every deviation
// is then an exact int64 sum of weight*(2*level-3) terms — an
// order-independent quantity that an incremental accumulator can maintain
// under single-cell updates with bit-for-bit agreement against a
// from-scratch recompute. Invertibility depends on that exactness; see
// TestIncrementalDeviationsMatchScratch.
//
// A Calibration is safe for concurrent readers: per-PoE records are built
// lazily under a per-PoE sync.Once, so concurrent pipeline workers
// first-touching the same PoE calibrate it exactly once and everyone else
// blocks until the record is ready.
type Calibration struct {
	cfg Config
	xb  *Crossbar // reference crossbar used for solves (nominal state)

	poes  []poeCal      // per PoE (linear cell index)
	slots atomic.Uint64 // tracker slots handed out to built PoEs (high half) and their ΣS (low half)

	sk calSketch // shared device sketch (sketch path only), built lazily
}

// poeCal is the lazily built calibration record of one PoE.
type poeCal struct {
	once sync.Once
	err  error

	// started/done bracket the build for singleflight-wait accounting:
	// a caller seeing started && !done is about to block inside once.Do
	// behind another goroutine's build. Purely observational — the Once
	// remains the synchronization.
	started atomic.Bool
	done    atomic.Bool

	slot     int // dense index of this PoE's state in a crossbar's tracker
	accOff   int // offset of its accumulator: ΣS over the lower slots
	shape    []Cell
	shapeIdx []int32 // linear index of each shape cell
	inShape  []bool
	base     []float64

	// Quantized sensitivity kernel: compIdx lists the complement cells
	// (ascending) that any shape cell is sensitive to; compPos inverts it
	// (cell index -> position in compIdx, or -1); wflat[k] is the flat
	// int64 weight row of shape cell k, aligned with compIdx.
	compIdx []int32
	compPos []int32
	wflat   [][]int64

	// The incremental tracker's view of the same kernel: wT holds the
	// weights complement-major (wT[j*S+k] = wflat[k][j], S shape cells),
	// so one changed cell updates one contiguous stripe; compMask marks
	// the compIdx cells in the crossbar's packed-level layout; acc0 is
	// the deviation sums at the all-level-0 state.
	wT       []int64
	compMask []uint64
	acc0     []int64

	edges [][2]float64
}

// devWeightBits is the fixed-point precision of the quantized sensitivity
// weights: weights are integer multiples of 2^-devWeightBits.
const devWeightBits = 40

// devInvScale converts an int64 deviation accumulator to volts: the weight
// grid contributes 2^-devWeightBits and the level term (2l-3)/8 another
// 2^-3.
const devInvScale = 0x1p-43

// levelQ returns the integer level coordinate q = 2l-3, the exact numerator
// of LevelCenter(l) - 0.5 = (2l-3)/8 for MLC-2.
func levelQ(l int) int64 { return int64(2*l - 3) }

// Calibrate builds an empty calibration bound to the crossbar's geometry
// and fabrication variation. Per-PoE data is computed lazily on first use.
// For unvaried (VarFrac == 0) configurations, prefer CalibrationFor, which
// shares one calibration per fabrication identity across the process.
func Calibrate(x *Crossbar) *Calibration {
	return &Calibration{
		cfg:  x.Cfg,
		xb:   x,
		poes: make([]poeCal, x.Cfg.Cells()),
	}
}

// sensDelta is the state perturbation used for the finite-difference
// sensitivity extraction.
const sensDelta = 0.25

// calSamples is the number of random data samples used to place the strength
// band edges.
const calSamples = 512

// ensure computes the calibration record for one PoE, exactly once even
// under concurrent first touch, and hands a built record the next dense
// tracker slot and accumulator offset. done is stored once, by the build:
// the pulse path calls ensure per pulse from every helper, and a store
// there would bounce the record's cache line between cores.
func (c *Calibration) ensure(poe Cell) error {
	pi := c.poeIndex(poe)
	if pi < 0 {
		return fmt.Errorf("xbar: PoE %+v out of bounds", poe)
	}
	pc := &c.poes[pi]
	if t := xtel.Load(); t != nil && !pc.done.Load() {
		// Whoever flips started owns the build; everyone else arriving
		// before done is a singleflight waiter (an approximation — a racer
		// landing in the build/done gap may be counted without blocking).
		if pc.started.Swap(true) {
			t.sfWaits.Inc()
		} else {
			t.builds.Inc()
		}
	}
	pc.once.Do(func() {
		if pc.err = c.build(poe, pc); pc.err == nil {
			pc.slot, pc.accOff = c.handOut(len(pc.shape))
		}
		pc.done.Store(true)
	})
	return pc.err
}

// handOut takes the next tracker slot and the next s accumulator entries
// in one atomic step, so a slot's offset is always ΣS over the slots below
// it and a tracker sized from slotsOut covers every PoE handed out before.
func (c *Calibration) handOut(s int) (slot, accOff int) {
	v := c.slots.Add(1<<32|uint64(s)) - (1<<32 | uint64(s))
	return int(v >> 32), int(uint32(v))
}

// slotsOut returns how many tracker slots have been handed out and the ΣS
// of their accumulators.
func (c *Calibration) slotsOut() (nslots, accLen int) {
	v := c.slots.Load()
	return int(v >> 32), int(uint32(v))
}

// poeIndex returns the linear index of poe, or -1 when it lies outside the
// array. It reads the geometry through the pointer: the pulse path calls
// it per pulse, and Config's value-receiver methods copy the whole struct.
func (c *Calibration) poeIndex(poe Cell) int {
	rows, cols := c.cfg.Rows, c.cfg.Cols
	if poe.Row < 0 || poe.Row >= rows || poe.Col < 0 || poe.Col >= cols {
		return -1
	}
	return poe.Row*cols + poe.Col
}

// build does the actual per-PoE characterization work, dispatching between
// the legacy dense path (one factorization per PoE; bit-for-bit stable, it
// backs the 8x8 golden vectors) and the shared-sketch path that makes
// 32x32+ devices tractable (see calibrate_sparse.go), then derives the
// layouts the pulse path reads from either.
func (c *Calibration) build(poe Cell, pc *poeCal) error {
	var err error
	if c.useSketch() {
		err = c.buildSketch(poe, pc)
	} else {
		err = c.buildDense(poe, pc)
	}
	if err != nil {
		return err
	}
	pc.shapeIdx = make([]int32, len(pc.shape))
	for k, cell := range pc.shape {
		pc.shapeIdx[k] = int32(cell.Row*c.cfg.Cols + cell.Col)
	}
	s := len(pc.wflat)
	pc.wT = make([]int64, len(pc.compIdx)*s)
	pc.acc0 = make([]int64, s)
	for k, row := range pc.wflat {
		for j, w := range row {
			pc.wT[j*s+k] = w
			pc.acc0[k] += w * levelQ(0)
		}
	}
	pc.compMask = make([]uint64, (c.cfg.Cells()+31)/32)
	for _, m := range pc.compIdx {
		pc.compMask[m>>5] |= 3 << (uint(m&31) * 2)
	}
	return nil
}

// sparseCutoff is the cell count above which CharAuto selects the sketch
// path: 64 keeps the paper's 8x8 device — and its golden vectors — on the
// legacy dense path.
const sparseCutoff = 64

func (c *Calibration) useSketch() bool {
	switch c.cfg.Characterization {
	case CharDense:
		return false
	case CharSparse, CharHier:
		return true
	default:
		return c.cfg.Cells() > sparseCutoff
	}
}

// buildDense is the legacy characterization: factor the driven network of
// this PoE and answer every complement-cell perturbation with the batched
// probe-form Sherman–Morrison pass.
func (c *Calibration) buildDense(poe Cell, pc *poeCal) error {
	pi := c.cfg.Index(poe)
	cells := c.cfg.Cells()
	shape, err := c.xb.Shape(poe)
	if err != nil {
		return err
	}
	if len(shape) == 0 {
		return fmt.Errorf("xbar: PoE %+v has empty polyomino", poe)
	}
	inShape := make([]bool, cells)
	for _, cell := range shape {
		inShape[c.cfg.Index(cell)] = true
	}
	// Baseline solve: everything at mid state. The system is factored once
	// and all complement-cell perturbations are answered by one batched
	// Sherman-Morrison pass, which makes full-device calibration cheap
	// enough to run per fabrication identity.
	midR := c.xb.midR()
	nw, cellEdge, err := c.xb.buildNetwork(poe, midR, c.cfg.VDrive)
	if err != nil {
		return err
	}
	fac, err := nw.FactorSystem()
	if err != nil {
		return err
	}
	dv := make([]float64, cells)
	c.xb.cellDropsInto(dv, fac.Base())
	base := make([]float64, len(shape))
	for k, cell := range shape {
		base[k] = abs(dv[c.cfg.Index(cell)])
	}
	// Finite-difference sensitivities: perturb each complement cell's state
	// by +sensDelta and record the voltage change at each shape cell. The
	// calibration only observes the shape cells' junction drops, so the
	// whole sweep is phrased in the probe form of the batched update: full
	// solves for the ~|shape| probe pairs, a forward-only sweep over the
	// ~cells perturbation batch for the denominators — instead of cells
	// independent O(n^2) re-solves. The changes are then quantized to the
	// fixed-point weight grid. maxW keeps every full-array deviation sum
	// below 2^53, so int64 accumulation is exact and float64 conversion
	// lossless.
	comp := make([]int, 0, cells-len(shape))
	perts := make([]circuit.EdgePerturbation, 0, cells-len(shape))
	for m := 0; m < cells; m++ {
		if inShape[m] {
			continue
		}
		pr := c.xb.params[m]
		rPert := pr.ROn + (pr.ROff-pr.ROn)*(0.5+sensDelta)
		comp = append(comp, m)
		perts = append(perts, circuit.EdgePerturbation{Edge: cellEdge + m, NewOhms: rPert + c.cfg.RAccess})
	}
	pairs := make([]circuit.ProbePair, len(shape))
	for k, cell := range shape {
		pairs[k] = circuit.ProbePair{
			A: c.xb.rowNode(cell.Row, cell.Col),
			B: c.xb.colNode(cell.Row, cell.Col),
		}
	}
	diffs := make([]float64, len(perts)*len(pairs))
	if err := fac.SolveEdgesPerturbedDiffs(perts, pairs, diffs); err != nil {
		return err
	}
	maxW := int64((uint64(1)<<53 - 1) / uint64(3*cells))
	wdense := make([][]int64, len(shape))
	for k := range wdense {
		wdense[k] = make([]int64, cells)
	}
	for j, m := range comp {
		row := diffs[j*len(pairs) : (j+1)*len(pairs)]
		for k := range shape {
			w := (abs(row[k]) - base[k]) / sensDelta
			wq := int64(math.Round(w * (1 << devWeightBits)))
			if wq > maxW || wq < -maxW {
				return fmt.Errorf("xbar: PoE %+v sensitivity %g overflows the fixed-point weight grid", poe, w)
			}
			wdense[k][m] = wq
		}
	}
	compIdx, compPos, wflat := flattenSensitivities(cells, inShape, wdense)
	// Place band edges so the three strength classes are balanced over
	// random data. The sampling is seeded from the reference crossbar's
	// seed so the calibration is a pure function of the fabrication
	// identity.
	edges := make([][2]float64, len(shape))
	rng := rand.New(rand.NewSource(c.xb.Cfg.Seed*1315423911 + int64(pi)))
	devs := make([]float64, calSamples)
	for k := range shape {
		row := wflat[k]
		for s := 0; s < calSamples; s++ {
			var d int64
			for j := range row {
				lvl := rng.Intn(device.Levels)
				d += row[j] * levelQ(lvl)
			}
			devs[s] = float64(d) * devInvScale
		}
		sort.Float64s(devs)
		lo := devs[calSamples/3]
		hi := devs[2*calSamples/3]
		if hi-lo < 1e-15 { // degenerate: no data sensitivity at this cell
			lo, hi = -1e300, 1e300
		}
		edges[k] = [2]float64{lo, hi}
	}
	pc.shape = shape
	pc.inShape = inShape
	pc.base = base
	pc.compIdx = compIdx
	pc.compPos = compPos
	pc.wflat = wflat
	pc.edges = edges
	return nil
}

// flattenSensitivities compacts a dense per-shape-cell weight table into
// the calibration's sparse layout: complement cells that at least one shape
// cell is sensitive to, in ascending order (compIdx), the inverse map
// (compPos, -1 where absent), and per-shape-cell weight rows aligned with
// compIdx. Shared by both build paths so the record layout is identical
// regardless of how the weights were computed.
func flattenSensitivities(cells int, inShape []bool, wdense [][]int64) (compIdx, compPos []int32, wflat [][]int64) {
	compPos = make([]int32, cells)
	for i := range compPos {
		compPos[i] = -1
	}
	for m := 0; m < cells; m++ {
		if inShape[m] {
			continue
		}
		for k := range wdense {
			if wdense[k][m] != 0 {
				compPos[m] = int32(len(compIdx))
				compIdx = append(compIdx, int32(m))
				break
			}
		}
	}
	wflat = make([][]int64, len(wdense))
	for k := range wflat {
		row := make([]int64, len(compIdx))
		for j, m := range compIdx {
			row[j] = wdense[k][m]
		}
		wflat[k] = row
	}
	return compIdx, compPos, wflat
}

// Shape returns the calibrated polyomino for a PoE.
func (c *Calibration) Shape(poe Cell) ([]Cell, error) {
	if err := c.ensure(poe); err != nil {
		return nil, err
	}
	return c.poes[c.cfg.Index(poe)].shape, nil
}

// deviationsInto computes, per shape cell, the exact integer deviation
// accumulator sum_j wflat[k][j] * (2*level-3) from scratch. The level
// coordinates of the complement cells are gathered into q once, not once
// per shape cell; q is grown when short and returned for reuse (nil is
// fine). Integer addition is associative (wrapping included), so the split
// accumulators of dotQ agree bit-for-bit with any other summation order and
// with incremental maintenance of the same quantity — the property
// decryption relies on.
func (pc *poeCal) deviationsInto(dst []int64, levels []int, q []int64) []int64 {
	n := len(pc.compIdx)
	if cap(q) < n {
		q = make([]int64, n)
	}
	q = q[:n]
	for j, m := range pc.compIdx {
		q[j] = levelQ(levels[m])
	}
	for k, row := range pc.wflat {
		dst[k] = dotQ(row, q)
	}
	return q
}

// dotQ returns the int64 dot product of a weight row and the gathered level
// coordinates (len(q) >= len(w)), with two independent accumulators so
// consecutive multiply-adds do not serialize on one register.
func dotQ(w, q []int64) int64 {
	q = q[:len(w)]
	var d0, d1 int64
	j := 0
	for ; j+1 < len(w); j += 2 {
		d0 += w[j] * q[j]
		d1 += w[j+1] * q[j+1]
	}
	if j < len(w) {
		d0 += w[j] * q[j]
	}
	return d0 + d1
}

// deviations returns the per-shape-cell sneak-voltage deviations in volts.
func (c *Calibration) deviations(levels []int, poe Cell) ([]float64, error) {
	if err := c.ensure(poe); err != nil {
		return nil, err
	}
	pc := &c.poes[c.cfg.Index(poe)]
	if len(levels) != c.cfg.Cells() {
		return nil, fmt.Errorf("xbar: deviations needs %d levels, got %d", c.cfg.Cells(), len(levels))
	}
	acc := make([]int64, len(pc.shape))
	pc.deviationsInto(acc, levels, nil)
	out := make([]float64, len(acc))
	for k, d := range acc {
		out[k] = float64(d) * devInvScale
	}
	return out, nil
}

// Strengths returns the voltage class (1..3) of every shape cell for the
// given crossbar state. The class depends only on cells outside the
// polyomino.
func (c *Calibration) Strengths(levels []int, poe Cell) ([]int, error) {
	devs, err := c.deviations(levels, poe)
	if err != nil {
		return nil, err
	}
	pc := &c.poes[c.cfg.Index(poe)]
	out := make([]int, len(devs))
	for k, d := range devs {
		e := pc.edges[k]
		switch {
		case d < e[0]:
			out[k] = 1
		case d < e[1]:
			out[k] = 2
		default:
			out[k] = 3
		}
	}
	return out, nil
}

// mixer derives the mixing word of shape cell k of the PoE with linear
// index pi from its deviation accumulator entry d (scratch or incremental
// — they are bit-identical).
func (pc *poeCal) mixer(pi, k int, d int64) uint64 {
	v := pc.base[k] + float64(d)*devInvScale
	return splitmix64(math.Float64bits(v) ^ uint64(pi)<<32 ^ uint64(k))
}

// Mixers returns, per shape cell, a 64-bit mixing word derived from the
// exact solved voltage (baseline + data-dependent deviation) at comparator
// resolution. The SPECU's voltage classification reads the sneak voltage
// through a high-gain comparator bank, so the resulting level permutation
// is an extremely sensitive — yet fully deterministic and, because it
// depends only on complement data, exactly invertible — function of the
// state of the cells outside the polyomino. This sensitivity is what gives
// SPE its avalanche behaviour (Section 6.1).
func (c *Calibration) Mixers(levels []int, poe Cell) ([]uint64, error) {
	if err := c.ensure(poe); err != nil {
		return nil, err
	}
	pi := c.cfg.Index(poe)
	pc := &c.poes[pi]
	if len(levels) != c.cfg.Cells() {
		return nil, fmt.Errorf("xbar: Mixers needs %d levels, got %d", c.cfg.Cells(), len(levels))
	}
	acc := make([]int64, len(pc.shape))
	pc.deviationsInto(acc, levels, nil)
	out := make([]uint64, len(acc))
	for k, d := range acc {
		out[k] = pc.mixer(pi, k, d)
	}
	return out, nil
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-distributed 64-bit mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// Baseline returns the calibrated mid-state |voltage| of each shape cell —
// used by the Fig. 4 style reporting and by tests.
func (c *Calibration) Baseline(poe Cell) ([]float64, error) {
	if err := c.ensure(poe); err != nil {
		return nil, err
	}
	return c.poes[c.cfg.Index(poe)].base, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
