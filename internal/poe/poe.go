// Package poe determines the point-of-encryption locations for a crossbar —
// the Table 1 integer linear program. With translation-defined polyomino
// footprints the paper's two-index formulation (B[i][j] assigning cells to
// polyomino slots) collapses to one binary per candidate PoE location:
//
//	minimize   sum_i y_i
//	subject to 1 <= cover(m) <= MaxCover          for every cell m
//	           sum_m cover(m) >= M*N + S
//	where      cover(m) = sum over PoEs i whose polyomino contains m of y_i
//
// "Each polyomino has exactly one PoE" and "each cell is a PoE at most once"
// hold by construction. S trades security (more overlap) against latency
// (more pulses), exactly as in the paper.
package poe

import (
	"context"
	"fmt"
	"sort"

	"snvmm/internal/ilp"
	"snvmm/internal/telemetry"
	"snvmm/internal/telemetry/trace"
	"snvmm/internal/xbar"
)

// ShapeFunc returns the polyomino footprint of a candidate PoE.
type ShapeFunc func(xbar.Cell) []xbar.Cell

// Spec describes one placement problem.
type Spec struct {
	Cfg      xbar.Config
	Shape    ShapeFunc // nil means Cfg.PaperShape
	S        int       // security slack (Table 1); 0 <= S <= M*N-1
	MaxCover int       // per-cell overlap cap; 0 means 2 (the paper's value)
	MaxNodes int       // branch-and-bound node limit; 0 means solver default

	// Telemetry, if non-nil, receives the solver's live ilp.* instruments
	// and incumbent events. Observational only; never changes the placement.
	Telemetry *telemetry.Registry

	// Tracer, if non-nil, records the solve as an ilp.solve causal trace
	// root. Observational only.
	Tracer *trace.Tracer
}

func (s *Spec) shape() ShapeFunc {
	if s.Shape != nil {
		return s.Shape
	}
	return s.Cfg.PaperShape
}

func (s *Spec) maxCover() int {
	if s.MaxCover <= 0 {
		return 2
	}
	return s.MaxCover
}

// Result is a PoE placement. The placement is canonical: for a given spec
// it is the same across runs (the solver returns the lexicographically
// smallest optimal selection).
type Result struct {
	PoEs     []xbar.Cell
	Coverage []int // per-cell polyomino count
	Optimal  bool  // true if branch and bound proved optimality

	// Search statistics from the solver.
	Nodes     int64   // branch-and-bound nodes explored, canonicalization probes included
	BestBound float64 // proven lower bound on the optimal PoE count
	Gap       float64 // relative optimality gap; 0 when Optimal

	IncumbentUpdates int64 // incumbent improvements accepted
}

// covers precomputes, for every candidate PoE i, the linear indices its
// polyomino covers.
func covers(cfg xbar.Config, shape ShapeFunc) [][]int {
	out := make([][]int, cfg.Cells())
	for i := range out {
		cells := shape(cfg.CellAt(i))
		idx := make([]int, len(cells))
		for k, c := range cells {
			idx[k] = cfg.Index(c)
		}
		out[i] = idx
	}
	return out
}

// Solve finds a minimum PoE set satisfying the Table 1 constraints.
func Solve(spec Spec) (*Result, error) {
	return SolveContext(context.Background(), spec)
}

// SolveContext is Solve with cancellation and deadline support: when ctx
// ends early the best placement found so far is returned (Optimal false)
// if one exists.
func SolveContext(ctx context.Context, spec Spec) (*Result, error) {
	if err := spec.Cfg.Validate(); err != nil {
		return nil, err
	}
	n := spec.Cfg.Cells()
	if spec.S < 0 || spec.S > n-1 {
		return nil, fmt.Errorf("poe: S=%d out of [0, %d]", spec.S, n-1)
	}
	cov := covers(spec.Cfg, spec.shape())
	maxCover := spec.maxCover()

	p := &ilp.Problem{NumVars: n, Objective: ones(n)}
	// Per-cell coverage rows.
	coveredBy := make([][]int, n) // cell -> candidate PoEs covering it
	for i, cs := range cov {
		for _, m := range cs {
			coveredBy[m] = append(coveredBy[m], i)
		}
	}
	for m := 0; m < n; m++ {
		if len(coveredBy[m]) == 0 {
			return nil, fmt.Errorf("poe: cell %d coverable by no polyomino; shape too small", m)
		}
		terms := make([]ilp.Term, len(coveredBy[m]))
		for k, i := range coveredBy[m] {
			terms[k] = ilp.Term{Var: i, Coef: 1}
		}
		// One two-sided row per cell: half the tableau rows of a GE+LE pair.
		p.Cons = append(p.Cons,
			ilp.Constraint{Terms: terms, Sense: ilp.RNG, LB: 1, RHS: float64(maxCover)},
		)
	}
	// Total coverage >= M*N + S.
	total := make([]ilp.Term, n)
	for i := range total {
		total[i] = ilp.Term{Var: i, Coef: float64(len(cov[i]))}
	}
	p.Cons = append(p.Cons, ilp.Constraint{Terms: total, Sense: ilp.GE, RHS: float64(n + spec.S)})

	inc := greedyIncumbent(n, cov, coveredBy, maxCover, spec.S)
	if inc == nil && spec.Shape == nil {
		// The greedy jams on larger arrays (it saturates cells until no
		// candidate fits under the cap while slack is still owed); for the
		// paper cross the staggered lattice is a drop-in feasible start.
		inc = latticeIncumbent(spec.Cfg, cov, maxCover, spec.S)
	}
	sol, err := ilp.SolveILPContext(ctx, p, ilp.ILPOptions{
		MaxNodes:          spec.MaxNodes,
		Incumbent:         inc,
		IntegralObjective: true,
		Canonicalize:      true,
		Telemetry:         spec.Telemetry,
		Tracer:            spec.Tracer,
	})
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case ilp.Optimal, ilp.LimitReached:
		if sol.X == nil {
			return nil, fmt.Errorf("poe: solver hit node limit with no feasible placement")
		}
	case ilp.Infeasible:
		return nil, fmt.Errorf("poe: no placement satisfies coverage in [1,%d] with S=%d", maxCover, spec.S)
	default:
		return nil, fmt.Errorf("poe: unexpected solver status %v", sol.Status)
	}
	res := &Result{
		Optimal:          sol.Status == ilp.Optimal,
		Nodes:            sol.Nodes,
		BestBound:        sol.BestBound,
		Gap:              sol.RelGap,
		IncumbentUpdates: sol.IncumbentUpdates,
	}
	for i, v := range sol.X {
		if v > 0.5 {
			res.PoEs = append(res.PoEs, spec.Cfg.CellAt(i))
		}
	}
	res.Coverage = CoverageOf(spec.Cfg, spec.shape(), res.PoEs)
	return res, nil
}

// greedyIncumbent builds a feasible cover greedily to seed branch and bound:
// repeatedly add the PoE covering the most uncovered cells without pushing
// any cell past maxCover. Returns nil if the greedy gets stuck.
func greedyIncumbent(n int, cov [][]int, coveredBy [][]int, maxCover, s int) []float64 {
	x := make([]float64, n)
	count := make([]int, n)
	covered := 0
	totalCov := 0
	for covered < n || totalCov < n+s {
		best, bestGain := -1, -1
		for i := 0; i < n; i++ {
			if x[i] > 0 {
				continue
			}
			gain, ok := 0, true
			for _, m := range cov[i] {
				if count[m]+1 > maxCover {
					ok = false
					break
				}
				if count[m] == 0 {
					gain++
				}
			}
			if !ok {
				continue
			}
			// Tie-break toward more total coverage when all cells covered.
			if covered == n {
				gain = len(cov[i])
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			return nil
		}
		x[best] = 1
		for _, m := range cov[best] {
			if count[m] == 0 {
				covered++
			}
			count[m]++
			totalCov++
		}
	}
	return x
}

// CoverageOf counts, per cell, how many of the given PoEs' polyominoes
// contain it.
func CoverageOf(cfg xbar.Config, shape ShapeFunc, poes []xbar.Cell) []int {
	cov := make([]int, cfg.Cells())
	for _, p := range poes {
		for _, c := range shape(p) {
			cov[cfg.Index(c)]++
		}
	}
	return cov
}

// Stats summarizes coverage for the Fig. 6 bars.
type Stats struct {
	PoEs       int
	Uncovered  int // cells covered by no polyomino
	Single     int // covered exactly once (the red, vulnerable bar)
	Overlapped int // covered 2+ times (the green, secure bar)
	TotalCover int
}

// StatsOf computes coverage statistics for a placement.
func StatsOf(cfg xbar.Config, shape ShapeFunc, poes []xbar.Cell) Stats {
	cov := CoverageOf(cfg, shape, poes)
	st := Stats{PoEs: len(poes)}
	for _, c := range cov {
		st.TotalCover += c
		switch {
		case c == 0:
			st.Uncovered++
		case c == 1:
			st.Single++
		default:
			st.Overlapped++
		}
	}
	return st
}

// BestPlacement searches for a placement of exactly k PoEs maximizing the
// number of multi-covered cells (Fig. 6's sweep over PoE counts). It uses
// the greedy cover followed by steepest-ascent local search (swap moves), a
// practical stand-in for re-running the full ILP at every k.
func BestPlacement(cfg xbar.Config, shape ShapeFunc, k int, iters int) ([]xbar.Cell, Stats, error) {
	if shape == nil {
		shape = cfg.PaperShape
	}
	n := cfg.Cells()
	if k < 1 || k > n {
		return nil, Stats{}, fmt.Errorf("poe: k=%d out of range", k)
	}
	cov := covers(cfg, shape)
	// Start: greedy by uncovered gain.
	chosen := map[int]bool{}
	count := make([]int, n)
	add := func(i int) {
		chosen[i] = true
		for _, m := range cov[i] {
			count[m]++
		}
	}
	remove := func(i int) {
		delete(chosen, i)
		for _, m := range cov[i] {
			count[m]--
		}
	}
	for len(chosen) < k {
		best, bestGain := -1, -1
		for i := 0; i < n; i++ {
			if chosen[i] {
				continue
			}
			gain := 0
			for _, m := range cov[i] {
				if count[m] == 0 {
					gain += 2
				} else if count[m] == 1 {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		add(best)
	}
	score := func() int {
		s := 0
		for _, c := range count {
			switch {
			case c == 0:
				s -= 4 // uncovered cells are heavily penalized
			case c >= 2:
				s++
			}
		}
		return s
	}
	if iters <= 0 {
		iters = 200
	}
	cur := score()
	for it := 0; it < iters; it++ {
		improved := false
		ids := sortedKeys(chosen)
		for _, out := range ids {
			for in := 0; in < n; in++ {
				if chosen[in] {
					continue
				}
				remove(out)
				add(in)
				if s := score(); s > cur {
					cur = s
					improved = true
					break
				}
				remove(in)
				add(out)
			}
			if improved {
				break
			}
		}
		if !improved {
			break
		}
	}
	poes := make([]xbar.Cell, 0, k)
	for _, i := range sortedKeys(chosen) {
		poes = append(poes, cfg.CellAt(i))
	}
	return poes, StatsOf(cfg, shape, poes), nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}
