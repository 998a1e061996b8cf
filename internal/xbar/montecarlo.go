package xbar

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"snvmm/internal/device"
	"snvmm/internal/sched"
)

// MonteCarloResult summarizes a parametric-variation study of the polyomino
// shape (Section 5: ±5 % wire-resistance variation does not change the
// polyomino; macro-level parameter changes do).
type MonteCarloResult struct {
	Samples      int
	ShapeChanged int     // samples whose voltage-rule polyomino differs from nominal
	MaxVoltDelta float64 // worst per-cell |dv| deviation from nominal, volts
}

// MonteCarloShape perturbs wire resistances by a uniform factor in
// [1-wireVar, 1+wireVar] and device resistance bounds by deviceVar, solving
// the voltage-rule polyomino each time and comparing to the nominal shape.
// If a perturbed ROff lands at or below ROn — possible once deviceVar
// approaches 1, where the two uniform draws can cross — the sample is
// clamped to ROff = 1.5*ROn so it remains a physical (if extreme) device
// rather than an inverted one; the sample still counts.
//
// Samples fan out over sched.WorkersFor(workers, samples) goroutines
// (workers <= 0 selects the host's schedulable parallelism). Each sample
// draws its perturbations from an rng seeded by mixing the caller's seed with the sample index, so the result
// is a pure function of (cfg, poe, samples, vars, seed) — independent of
// worker count and scheduling. Each worker assembles the sneak network once
// and re-solves it through a reusable workspace, refilling resistances in
// place per sample.
//
// On any error the zero MonteCarloResult is returned: a partially
// accumulated result has no meaningful sample count and must not be
// interpreted.
func MonteCarloShape(cfg Config, poe Cell, samples int, wireVar, deviceVar float64, seed int64, workers int) (MonteCarloResult, error) {
	nomCfg := cfg
	nomCfg.Shape = ShapeVoltage
	nom, err := New(nomCfg)
	if err != nil {
		return MonteCarloResult{}, err
	}
	nomShape, err := nom.Shape(poe)
	if err != nil {
		return MonteCarloResult{}, err
	}
	nomMap, err := nom.VoltageMap(poe)
	if err != nil {
		return MonteCarloResult{}, err
	}
	nomKey := shapeKey(nomCfg, nomShape)

	workers = sched.WorkersFor(workers, samples)
	if samples == 0 {
		return MonteCarloResult{Samples: 0}, nil
	}

	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		changed  int
		maxDelta float64
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			localChanged, localMax, err := monteCarloWorker(nom, nomCfg, poe, nomKey, nomMap, samples, wireVar, deviceVar, seed, &next)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
			changed += localChanged
			if localMax > maxDelta {
				maxDelta = localMax
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return MonteCarloResult{}, firstErr
	}
	return MonteCarloResult{Samples: samples, ShapeChanged: changed, MaxVoltDelta: maxDelta}, nil
}

// monteCarloWorker claims sample indices from next until they run out,
// solving each perturbed configuration on a privately owned network +
// workspace pair.
func monteCarloWorker(nom *Crossbar, nomCfg Config, poe Cell, nomKey string, nomMap []float64,
	samples int, wireVar, deviceVar float64, seed int64, next *atomic.Int64) (int, float64, error) {
	cells := nomCfg.Cells()
	nw, cellEdge, err := nom.buildNetwork(poe, nom.midR(), nomCfg.VDrive)
	if err != nil {
		return 0, 0, err
	}
	ws, err := nw.NewWorkspace()
	if err != nil {
		return 0, 0, err
	}
	var params []device.Params
	cellR := make([]float64, cells)
	key := make([]byte, cells)
	changed, maxDelta := 0, 0.0
	for {
		s := int(next.Add(1)) - 1
		if s >= samples {
			return changed, maxDelta, nil
		}
		// Per-sample generator: the caller seed and the sample index are
		// mixed through splitmix64, so sample s draws the same perturbations
		// no matter which worker runs it. The draw order (row wires, column
		// wires, then device bounds) is part of the pinned behaviour.
		rng := rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ splitmix64(uint64(s)+1)))))
		c := nomCfg
		f := func(v float64, frac float64) float64 { return v * (1 + frac*(2*rng.Float64()-1)) }
		c.RWireRow = f(c.RWireRow, wireVar)
		c.RWireCol = f(c.RWireCol, wireVar)
		if deviceVar > 0 {
			c.Device.ROn = f(c.Device.ROn, deviceVar)
			c.Device.ROff = f(c.Device.ROff, deviceVar)
			// Independent draws can invert the bounds at large deviceVar;
			// clamp to a still-physical window (see the function comment).
			if c.Device.ROff <= c.Device.ROn {
				c.Device.ROff = c.Device.ROn * 1.5
			}
		}
		params = c.cellParamsInto(params)
		for i, p := range params {
			cellR[i] = p.ROn + (p.ROff-p.ROn)*0.5
		}
		if err := nom.setSneakResistances(nw, cellEdge, c.RWireRow, c.RWireCol, cellR); err != nil {
			return 0, 0, err
		}
		sol, err := ws.Solve()
		if err != nil {
			return 0, 0, err
		}
		// One solve yields both Section 5 quantities: the voltage-rule
		// membership (vs the nominal polyomino) and the per-cell |dv| drift.
		for r := 0; r < c.Rows; r++ {
			for j := 0; j < c.Cols; j++ {
				i := c.Index(Cell{Row: r, Col: j})
				v := abs(sol.V[nom.rowNode(r, j)] - sol.V[nom.colNode(r, j)])
				if v >= params[i].VtOff {
					key[i] = '1'
				} else {
					key[i] = '0'
				}
				if d := abs(v - nomMap[i]); d > maxDelta {
					maxDelta = d
				}
			}
		}
		if string(key) != nomKey {
			changed++
		}
	}
}

// shapeKey builds a canonical bitset string for a cell set.
func shapeKey(cfg Config, cells []Cell) string {
	b := make([]byte, cfg.Cells())
	for i := range b {
		b[i] = '0'
	}
	for _, c := range cells {
		b[cfg.Index(c)] = '1'
	}
	return string(b)
}

// DynamicShapeStability quantifies the assumption behind calibrated
// polyomino shapes (DESIGN.md "physics layer"): across random stored data,
// how often does the live-state voltage-rule polyomino differ from the
// calibrated (mid-state) one? The paper asserts stability under small
// perturbations; this measures it for full data swings. Returns the
// fraction of samples whose membership set changed and the mean per-cell
// membership mismatch.
func (x *Crossbar) DynamicShapeStability(poe Cell, samples int, seed int64) (changedFrac, cellMismatch float64, err error) {
	calMap, err := x.VoltageMap(poe)
	if err != nil {
		return 0, 0, err
	}
	calSet := make([]bool, x.Cfg.Cells())
	for i, v := range calMap {
		calSet[i] = v >= x.params[i].VtOff
	}
	rng := rand.New(rand.NewSource(seed))
	changed, mismatches := 0, 0
	for s := 0; s < samples; s++ {
		cellR := make([]float64, x.Cfg.Cells())
		for i := range cellR {
			cellR[i] = x.resistance(i, rng.Intn(4))
		}
		dv, err := x.SolveVoltages(poe, cellR)
		if err != nil {
			return 0, 0, err
		}
		diff := 0
		for i, v := range dv {
			member := abs(v) >= x.params[i].VtOff
			if member != calSet[i] {
				diff++
			}
		}
		if diff > 0 {
			changed++
		}
		mismatches += diff
	}
	return float64(changed) / float64(samples),
		float64(mismatches) / float64(samples*x.Cfg.Cells()), nil
}
