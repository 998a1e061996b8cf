package ilp

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"snvmm/internal/telemetry"
	"snvmm/internal/telemetry/trace"
)

// ILPOptions configures the branch-and-bound search.
type ILPOptions struct {
	MaxNodes int     // 0 means 200000
	Gap      float64 // absolute optimality gap for early stop; 0 = prove optimal
	// IntegralObjective asserts every feasible 0/1 assignment has an
	// integer objective value, allowing LP bounds to be rounded up —
	// a large pruning win for covering problems.
	IntegralObjective bool
	// Incumbent, if non-nil, is a known-feasible 0/1 assignment used as
	// the initial upper bound (e.g. from a greedy heuristic).
	Incumbent []float64
	// Canonicalize runs a lexicographic-minimization pass after an optimal
	// solve: the returned X is the unique optimal assignment that prefers
	// x_j = 0 at every index in increasing order, whichever optimum the
	// search found first, at the cost of one bounded probe solve per
	// support variable. Only meaningful with Gap == 0 (with a nonzero gap
	// the accepted objective itself can vary).
	Canonicalize bool
	// Telemetry, if non-nil, receives live search instruments (ilp.* node
	// and incumbent counters plus best-objective/frontier-bound gauges) and
	// incumbent events. Purely observational: the search order, objective,
	// and canonical vector are identical with or without it.
	Telemetry *telemetry.Registry
	// Tracer, if non-nil, records the solve as one ilp.solve root span per
	// SolveILP call (canonicalization probes included). Observational only,
	// like Telemetry.
	Tracer *trace.Tracer
}

var traceMetaILPSolve = &trace.SpanMeta{Subsystem: "ilp", Name: "solve"}

// fixStep records one branching decision: variable Var fixed to Val.
type fixStep struct {
	Var int
	Val float64
}

// bbNode is one open node of the search frontier: the fix path from the
// root and the LP bound of its parent (its own bound until solved).
type bbNode struct {
	fixes []fixStep
	bound float64
	seq   int64
}

// nodeHeap is a min-heap over (bound, seq): best-first by LP bound, with
// insertion order as a deterministic tie-break.
type nodeHeap []*bbNode

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(*bbNode)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	nd := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return nd
}

// searcher is the state of one branch-and-bound run.
type searcher struct {
	p        *Problem
	ctx      context.Context
	ws       *Workspace
	maxNodes int64
	gap      float64
	integral bool
	preFixes []fixStep // fixes applied at the root (canonicalization probes)
	// target/stopAt implement bounded feasibility probes: nodes whose bound
	// exceeds target are pruned, and the search stops as soon as an
	// incumbent at or below stopAt is found. Both are +Inf/-Inf disabled in
	// ordinary solves.
	target float64
	stopAt float64

	frontier   nodeHeap
	seq        int64
	limit      bool
	minDropped float64 // min bound among nodes abandoned on limit/cancel
	nodes      int64

	// stop ends the search: set by an incumbent at or below stopAt, or from
	// the context's AfterFunc on cancellation. The workspace polls it too
	// (Workspace.Stop), so cancellation interrupts an LP mid-solve.
	stop atomic.Bool

	incObj     float64 // incumbent objective; +Inf none
	incX       []float64
	incUpdates int64

	tel *ilpTel // nil when telemetry is off

	varCons [][]int32 // var -> indices of constraints containing it
}

// cutoff is the pruning threshold: nodes whose bound is at or above it
// cannot improve on the incumbent (within Gap), and nodes above target are
// useless to a feasibility probe.
func (s *searcher) cutoff() float64 {
	c := s.incObj - 1e-7 - s.gap
	if t := s.target + 1e-7; t < c {
		c = t
	}
	return c
}

// tryIncumbent records x (already integral and feasible) if it beats the
// current incumbent. Ties keep the first winner; Canonicalize picks the
// final vector.
func (s *searcher) tryIncumbent(x []float64, obj float64) {
	if obj < s.incObj {
		s.incX = append(s.incX[:0], x...)
		s.incObj = obj
		s.incUpdates++
		if t := s.tel; t != nil {
			t.incumbents.Inc()
			t.bestObj.Set(obj)
			// A0 carries the new objective (integral for covering problems),
			// A1 the node count at the moment of improvement — together the
			// gap trajectory of the run.
			t.scope.Event(t.incumbMu, int64(math.Round(obj)), s.nodes)
		}
	}
	if obj <= s.stopAt+1e-7 {
		s.stop.Store(true)
	}
}

// dropNode records the bound of a node abandoned unexplored, so the final
// best-bound/gap report stays sound.
func (s *searcher) dropNode(bound float64) {
	if bound < s.minDropped {
		s.minDropped = bound
	}
}

// run is the search loop: pop the best frontier node, then dive
// depth-first from it, pushing the sibling of every branch onto the
// frontier. Once the node budget is spent the frontier is drained, its
// unpruned bounds recorded; cancellation or a probe hit stops the loop with
// the rest of the frontier left open.
func (s *searcher) run() {
	for len(s.frontier) > 0 && !s.stop.Load() {
		nd := heap.Pop(&s.frontier).(*bbNode)
		if nd.bound >= s.cutoff() {
			continue // pruned: the incumbent already covers it
		}
		if s.nodes >= s.maxNodes {
			s.limit = true
			s.dropNode(nd.bound)
			continue
		}
		if t := s.tel; t != nil && !math.IsInf(nd.bound, 0) { // root sentinel bound is -Inf
			t.headBnd.Set(nd.bound)
		}
		for n := nd; n != nil; {
			if s.stop.Load() || s.ctx.Err() != nil {
				s.dropNode(n.bound)
				return
			}
			if s.nodes >= s.maxNodes {
				s.limit = true
				s.dropNode(n.bound)
				break
			}
			s.nodes++
			if t := s.tel; t != nil {
				t.nodes.Inc()
			}
			n = s.expand(n)
		}
	}
}

// expand solves one node's relaxation and either prunes, records an
// incumbent, or branches. It returns the child the dive continues with, or
// nil when the node is closed.
func (s *searcher) expand(n *bbNode) *bbNode {
	ws := s.ws
	ws.Reset()
	for _, f := range s.preFixes {
		ws.Fix(f.Var, f.Val)
	}
	for _, f := range n.fixes {
		ws.Fix(f.Var, f.Val)
	}
	rel := ws.SolveRelax()
	switch rel.Status {
	case Infeasible, Unbounded:
		return nil
	case LimitReached:
		// The LP iteration cap hit: no bound is available, but skipping the
		// node would make the search inexact. Branch blindly on the lowest
		// free variable, keeping the parent bound.
		for j := 0; j < s.p.NumVars; j++ {
			if !ws.fixedMask[j] {
				return s.branch(n, j, 1, 0, n.bound)
			}
		}
		return nil
	}
	bound := rel.Objective
	if s.integral {
		bound = math.Ceil(bound - 1e-7)
	}
	if bound >= s.cutoff() {
		return nil
	}
	x := rel.X // aliases ws buffer; consumed before the next solve
	branchVar, bestFrac := -1, -1.0
	for j, v := range x {
		if f := math.Abs(v - math.Round(v)); f > 1e-6 {
			// Prefer the variable closest to 0.5.
			if score := 0.5 - math.Abs(f-0.5); score > bestFrac {
				bestFrac = score
				branchVar = j
			}
		}
	}
	if branchVar < 0 {
		cand := make([]float64, len(x))
		for j, v := range x {
			cand[j] = math.Round(v)
		}
		if feasible(s.p, cand) {
			s.tryIncumbent(cand, objValue(s.p, cand))
		}
		return nil
	}
	// Rounding heuristic: a repaired rounding of the fractional optimum often
	// lands near the LP bound, and a tight incumbent is what lets the search
	// close the bound plateau instead of enumerating it. Never changes the
	// final objective or the canonical vector — only how fast they're proven.
	// Throttled per workspace: diving re-solves move x little, so
	// consecutive nodes round to near-identical candidates.
	if ws.heurTick++; ws.heurTick%8 == 1 {
		if cand := s.roundRepair(x); cand != nil {
			s.tryIncumbent(cand, objValue(s.p, cand))
		}
	}
	// Dive toward x=1 first (progress toward coverage) unless the
	// relaxation leans strongly to 0 — same rule as the sequential seed.
	first, second := 1.0, 0.0
	if x[branchVar] < 0.3 {
		first, second = 0.0, 1.0
	}
	return s.branch(n, branchVar, first, second, bound)
}

// conViolation measures how far activity a is outside constraint c.
func conViolation(c *Constraint, a float64) float64 {
	v := 0.0
	switch c.Sense {
	case LE:
		if a > c.RHS {
			v = a - c.RHS
		}
	case GE:
		if a < c.RHS {
			v = c.RHS - a
		}
	case EQ:
		v = math.Abs(a - c.RHS)
	case RNG:
		if a > c.RHS {
			v = a - c.RHS
		} else if a < c.LB {
			v = c.LB - a
		}
	}
	return v
}

// roundRepair rounds a fractional LP solution to 0/1 and greedily repairs
// feasibility by single-variable flips, each chosen to maximally reduce the
// total constraint violation (ties: least objective damage, then lowest
// index). Variables fixed in the workspace — branching decisions and
// canonicalization pre-fixes — are never flipped, so the candidate stays
// consistent with any probe in flight. Once feasible, redundant positives
// are trimmed in one pass. Returns nil when repair stalls.
func (s *searcher) roundRepair(x []float64) []float64 {
	p, ws := s.p, s.ws
	cand := make([]float64, len(x))
	for j, v := range x {
		cand[j] = math.Round(v)
	}
	act := make([]float64, len(p.Cons))
	total := 0.0
	for ci := range p.Cons {
		c := &p.Cons[ci]
		for _, t := range c.Terms {
			act[ci] += t.Coef * cand[t.Var]
		}
		total += conViolation(c, act[ci])
	}
	// flipDelta is the change in total violation from flipping variable j.
	flipDelta := func(j int, to float64) float64 {
		d := 0.0
		for _, ci := range s.varCons[j] {
			c := &p.Cons[ci]
			coef := 0.0
			for _, t := range c.Terms {
				if t.Var == j {
					coef = t.Coef
					break
				}
			}
			d += conViolation(c, act[ci]+coef*(to-cand[j])) - conViolation(c, act[ci])
		}
		return d
	}
	apply := func(j int, to float64) {
		for _, ci := range s.varCons[j] {
			c := &p.Cons[ci]
			for _, t := range c.Terms {
				if t.Var == j {
					total -= conViolation(c, act[ci])
					act[ci] += t.Coef * (to - cand[j])
					total += conViolation(c, act[ci])
					break
				}
			}
		}
		cand[j] = to
	}
	seen := make(map[int]bool)
	for steps := 0; total > 1e-9; steps++ {
		if steps > 2*p.NumVars {
			return nil
		}
		// Only variables touching a violated constraint can reduce the
		// violation, which keeps each step near-linear in the violation size
		// rather than in the problem size.
		bestJ, bestTo := -1, 0.0
		bestD, bestCost := 0.0, math.Inf(1)
		clear(seen)
		for ci := range p.Cons {
			c := &p.Cons[ci]
			if conViolation(c, act[ci]) <= 1e-9 {
				continue
			}
			for _, t := range c.Terms {
				j := t.Var
				if seen[j] || ws.fixedMask[j] {
					continue
				}
				seen[j] = true
				to := 1 - cand[j]
				if to > p.ub(j)+1e-9 {
					continue
				}
				d := flipDelta(j, to)
				if -d <= 1e-9 { // only strict violation decreases make progress
					continue
				}
				cost := p.Objective[j] * (to - cand[j])
				if -d > bestD+1e-12 || (-d > bestD-1e-12 && cost < bestCost-1e-12) {
					bestJ, bestTo, bestD, bestCost = j, to, -d, cost
				}
			}
		}
		if bestJ < 0 {
			return nil
		}
		apply(bestJ, bestTo)
	}
	// Trim: drop any positive-cost variable whose removal keeps feasibility.
	for j := range cand {
		if cand[j] == 1 && !ws.fixedMask[j] && p.Objective[j] > 0 {
			if flipDelta(j, 0) < 1e-9 {
				apply(j, 0)
			}
		}
	}
	if !feasible(p, cand) {
		return nil
	}
	return cand
}

// branch creates the two children of n fixing branchVar: the second goes
// to the frontier, the first is returned for the dive to continue with.
func (s *searcher) branch(n *bbNode, branchVar int, first, second, bound float64) *bbNode {
	mk := func(v float64) *bbNode {
		fixes := make([]fixStep, len(n.fixes), len(n.fixes)+1)
		copy(fixes, n.fixes)
		return &bbNode{fixes: append(fixes, fixStep{branchVar, v}), bound: bound}
	}
	sib := mk(second)
	s.seq++
	sib.seq = s.seq
	heap.Push(&s.frontier, sib)
	return mk(first)
}

// solveBB runs the search to completion on ws and assembles the result.
func solveBB(ctx context.Context, p *Problem, opt ILPOptions, pre []fixStep, target, stopAt float64, ws *Workspace) (Solution, error) {
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 200000
	}
	s := &searcher{
		p:          p,
		ctx:        ctx,
		ws:         ws,
		maxNodes:   int64(maxNodes),
		gap:        opt.Gap,
		integral:   opt.IntegralObjective,
		preFixes:   pre,
		target:     target,
		stopAt:     stopAt,
		minDropped: math.Inf(1),
		incObj:     math.Inf(1),
		tel:        newILPTel(opt.Telemetry),
	}
	s.varCons = make([][]int32, p.NumVars)
	for ci := range p.Cons {
		for _, t := range p.Cons[ci].Terms {
			s.varCons[t.Var] = append(s.varCons[t.Var], int32(ci))
		}
	}
	if opt.Incumbent != nil {
		if len(opt.Incumbent) != p.NumVars {
			return Solution{}, fmt.Errorf("%w: incumbent length", ErrBadProblem)
		}
		if feasible(p, opt.Incumbent) && consistent(opt.Incumbent, pre) {
			s.tryIncumbent(opt.Incumbent, objValue(p, opt.Incumbent))
		}
	}
	s.frontier = nodeHeap{{bound: math.Inf(-1)}}

	ws.Stop = &s.stop // lets ctx expiry interrupt an LP mid-solve
	defer context.AfterFunc(ctx, func() { s.stop.Store(true) })()
	s.run()

	openBound := s.minDropped
	for _, nd := range s.frontier {
		if nd.bound < openBound {
			openBound = nd.bound
		}
	}
	hitLimit := s.limit || ctx.Err() != nil

	obj := s.incObj
	sol := Solution{Nodes: s.nodes, IncumbentUpdates: s.incUpdates}
	if s.incX != nil {
		sol.X = s.incX
		sol.Objective = obj
		if hitLimit {
			sol.Status = LimitReached
			sol.BestBound = math.Min(openBound, obj)
		} else {
			sol.Status = Optimal
			sol.BestBound = obj - opt.Gap
		}
		sol.RelGap = (sol.Objective - sol.BestBound) / math.Max(1, math.Abs(sol.Objective))
		return sol, nil
	}
	if hitLimit {
		sol.Status = LimitReached
		sol.BestBound = openBound
		sol.RelGap = math.Inf(1)
		return sol, nil
	}
	sol.Status = Infeasible
	return sol, nil
}

// consistent reports whether x agrees with every fix in pre.
func consistent(x []float64, pre []fixStep) bool {
	for _, f := range pre {
		if math.Abs(x[f.Var]-f.Val) > 1e-6 {
			return false
		}
	}
	return true
}

// SolveILP solves the problem with all variables restricted to {0, 1} by
// branch and bound over LP relaxations: a best-first frontier ordered by LP
// bound, a depth-first dive from every node popped off it, and one
// warm-started LP workspace for the whole solve. The search is
// deterministic; with ILPOptions.Canonicalize the solution vector is
// moreover the lexicographically smallest optimum.
func SolveILP(p *Problem, opt ILPOptions) (Solution, error) {
	return SolveILPContext(context.Background(), p, opt)
}

// SolveILPContext is SolveILP with cancellation and deadline support: when
// ctx is cancelled or expires the search stops early and the best-known
// solution so far is returned with Status LimitReached (optimality
// unproven), exactly as if the node budget had run out.
func SolveILPContext(ctx context.Context, p *Problem, opt ILPOptions) (Solution, error) {
	if err := p.validate(); err != nil {
		return Solution{}, err
	}
	ws, err := NewWorkspace(p)
	if err != nil {
		return Solution{}, err
	}
	// The whole solve — main search plus any canonicalization probes — is
	// one trace root. A0 reports the nodes expanded, A1 the final status.
	root := opt.Tracer.Root(traceMetaILPSolve)
	sol, err := solveBB(ctx, p, opt, nil, math.Inf(1), math.Inf(-1), ws)
	if err == nil && sol.Status == Optimal && opt.Canonicalize {
		var x []float64
		var probeNodes int64
		x, probeNodes, err = canonicalize(ctx, p, opt, sol.Objective, sol.X, ws)
		if err == nil {
			sol.X = x
		}
		sol.Nodes += probeNodes
		if opt.Telemetry != nil {
			opt.Telemetry.Counter("ilp.nodes").Add(probeNodes)
		}
	}
	root.End(sol.Nodes, int64(sol.Status))
	return sol, err
}

// canonicalize computes the lexicographically smallest optimal assignment
// (0 preferred at each index, scanning in increasing order) for a proven
// optimal objective z. It walks the variables once; indices where the
// current witness is already 0 are fixed for free, and each support index
// is resolved with one bounded feasibility probe ("is there an optimal
// completion with this variable at 0?"). The result is unique for a given
// (problem, z), independent of which optimum the search happened to find
// and of the node order. A probe that runs out of nodes falls back to
// the witness value, keeping the result optimal (if no longer guaranteed
// canonical); with the target-objective pruning this is not observed in
// practice. It also returns the nodes its probes expanded.
func canonicalize(ctx context.Context, p *Problem, opt ILPOptions, z float64, witness []float64, ws *Workspace) ([]float64, int64, error) {
	w := append([]float64(nil), witness...)
	for j := range w {
		w[j] = math.Round(w[j])
	}
	fixes := make([]fixStep, 0, p.NumVars)
	probeOpt := ILPOptions{
		MaxNodes:          opt.MaxNodes,
		IntegralObjective: opt.IntegralObjective,
	}
	var nodes int64
	for j := 0; j < p.NumVars; j++ {
		if w[j] == 0 {
			// The witness is an optimal completion with x_j = 0, so the
			// lex-smallest choice is already proven; no probe needed.
			fixes = append(fixes, fixStep{j, 0})
			continue
		}
		if ctx.Err() != nil {
			return w, nodes, nil // best effort: optimal but possibly non-canonical
		}
		probe := append(append(make([]fixStep, 0, len(fixes)+1), fixes...), fixStep{j, 0})
		sol, err := solveBB(ctx, p, probeOpt, probe, z, z, ws)
		nodes += sol.Nodes
		if err != nil {
			return nil, nodes, err
		}
		if sol.X != nil && sol.Objective <= z+1e-7 {
			for k, v := range sol.X {
				w[k] = math.Round(v)
			}
			fixes = probe
		} else {
			fixes = append(fixes, fixStep{j, 1})
		}
	}
	return w, nodes, nil
}

// feasible checks a 0/1 assignment against all constraints.
func feasible(p *Problem, x []float64) bool {
	for _, c := range p.Cons {
		s := 0.0
		for _, t := range c.Terms {
			s += t.Coef * x[t.Var]
		}
		switch c.Sense {
		case LE:
			if s > c.RHS+1e-6 {
				return false
			}
		case GE:
			if s < c.RHS-1e-6 {
				return false
			}
		case EQ:
			if math.Abs(s-c.RHS) > 1e-6 {
				return false
			}
		case RNG:
			if s > c.RHS+1e-6 || s < c.LB-1e-6 {
				return false
			}
		}
	}
	for j, v := range x {
		if v < -1e-9 || v > p.ub(j)+1e-9 {
			return false
		}
	}
	return true
}

func objValue(p *Problem, x []float64) float64 {
	s := 0.0
	for j, c := range p.Objective {
		s += c * x[j]
	}
	return s
}
