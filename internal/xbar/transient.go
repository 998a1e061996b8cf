package xbar

import (
	"fmt"
	"math"

	"snvmm/internal/device"
)

// This file is the continuous-layer transient engine: it co-simulates the
// sneak-path network and the TEAM device dynamics during a pulse, the way
// the paper's HSPICE+MATLAB loop does. The quantized encryption layer does
// not depend on it; it exists to validate the physics the quantized layer
// abstracts (polyomino cells drift, sub-threshold cells hold) and to let
// researchers explore other operating points.

// TransientResult captures one simulated pulse.
type TransientResult struct {
	// States holds the analog state of every cell after the pulse.
	States []float64
	// Drift is the net state change per cell.
	Drift []float64
	// MaxVoltage is the largest |drop| each cell saw during the pulse.
	MaxVoltage []float64
	// Energy is the total energy dissipated in the network over the pulse
	// (joules): the time integral of circuit.Power — what a supply-rail
	// probe would record for this pulse.
	Energy float64
	// Steps is the number of integration steps taken.
	Steps int
}

// TransientPulse co-simulates a rectangular pulse of the given amplitude
// applied at the PoE (row at +v/2, column at -v/2, sneak mode) for `width`
// seconds, starting from the crossbar's current quantized levels. At each
// time step the resistive network is re-solved with the instantaneous
// analog resistances and every cell's TEAM state is advanced under its
// local voltage drop. The crossbar's stored levels are not modified.
func (x *Crossbar) TransientPulse(poe Cell, v float64, width float64, steps int) (*TransientResult, error) {
	if !x.Cfg.InBounds(poe) {
		return nil, fmt.Errorf("xbar: PoE %+v out of bounds", poe)
	}
	if width <= 0 || steps < 1 {
		return nil, fmt.Errorf("xbar: need positive width and steps")
	}
	n := x.Cfg.Cells()
	states := make([]float64, n)
	for i := range states {
		states[i] = device.LevelCenter(x.level(i))
	}
	res := &TransientResult{
		States:     states,
		Drift:      make([]float64, n),
		MaxVoltage: make([]float64, n),
		Steps:      steps,
	}
	start := make([]float64, n)
	copy(start, states)

	// Build the sneak network once with the requested drive amplitude (an
	// explicit parameter, so concurrent pulses on shared-config crossbars
	// never race on Cfg). Each step only changes cell resistances, so the
	// loop updates them in place and re-solves through a Workspace, which
	// keeps the assembled structure and warm-starts from the previous
	// operating point.
	cellR := make([]float64, n)
	for i := range cellR {
		p := x.params[i]
		cellR[i] = p.ROn + (p.ROff-p.ROn)*states[i]
	}
	nw, cellEdge, err := x.buildNetwork(poe, cellR, v/2)
	if err != nil {
		return nil, err
	}
	ws, err := nw.NewWorkspace()
	if err != nil {
		return nil, err
	}
	dv := make([]float64, n)
	dt := width / float64(steps)
	for s := 0; s < steps; s++ {
		if s > 0 {
			for i := range cellR {
				p := x.params[i]
				cellR[i] = p.ROn + (p.ROff-p.ROn)*states[i]
				if err := nw.SetResistance(cellEdge+i, cellR[i]+x.Cfg.RAccess); err != nil {
					return nil, err
				}
			}
		}
		sol, err := ws.Solve()
		if err != nil {
			return nil, err
		}
		x.cellDropsInto(dv, sol)
		res.Energy += nw.Power(sol) * dt
		for i := range states {
			av := dv[i]
			if av < 0 {
				av = -av
			}
			if av > res.MaxVoltage[i] {
				res.MaxVoltage[i] = av
			}
			states[i] = clampState(states[i] + dt*driftRate(x.params[i], dv[i]))
		}
	}
	for i := range states {
		res.Drift[i] = states[i] - start[i]
	}
	return res, nil
}

// driftRate evaluates the TEAM drift at voltage v for params p (the same
// threshold model as device.Params, replicated here because the method is
// unexported).
func driftRate(p device.Params, v float64) float64 {
	switch {
	case v > p.VtOff:
		return p.KOff * math.Pow(v/p.VtOff-1, p.AlphaOff)
	case v < p.VtOn:
		return -p.KOn * math.Pow(v/p.VtOn-1, p.AlphaOn)
	default:
		return 0
	}
}

func clampState(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
