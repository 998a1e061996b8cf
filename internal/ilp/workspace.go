package ilp

import (
	"math"
	"sync/atomic"
)

// Workspace compiles one Problem into a form the branch and bound can
// re-solve repeatedly without allocating: the constraint rows, a dense
// simplex tableau buffer, and an in-place fixing representation (a
// fixed-variable mask plus per-row RHS/bound adjustments) that replaces the
// old rebuild-the-Problem-per-node substitution. A Workspace belongs to
// one goroutine at a time; one serves a whole solve.
//
// Variable upper bounds are implicit: a variable at its upper bound is
// complemented (x -> ub-x) instead of being materialized as an explicit
// <= row, so the tableau has one row per constraint rather than per
// constraint-plus-variable — for the Table 1 covering problems this
// roughly halves the row count versus the seed solver.
//
// Two solve paths share the tableau buffers:
//
//   - The dual path (used whenever every negative-cost variable has a
//     finite bound, which covers all 0/1 problems): the all-slack basis is
//     dual feasible after complementing negative-cost columns, so there is
//     no phase 1 at all, and a node that only *adds* fixes on top of the
//     tableau's current state warm-starts from the parent's optimal basis —
//     fixing a variable keeps dual feasibility, so a handful of dual pivots
//     re-optimize where a cold solve needs hundreds.
//   - The primal two-phase path: general fallback, also the only path that
//     can detect unboundedness.
type Workspace struct {
	p *Problem
	m int // constraint rows
	n int // structural variables
	// Column layout: [0,n) structural, then one slack per LE/GE/RNG row,
	// then the EQ artificials (basis columns the dual path needs, pinned at
	// zero), then — beyond awDual — artificials for GE/RNG rows that only
	// the primal fallback bases its phase 1 on. The dual path never sweeps
	// past awDual, which keeps dead columns out of its pivots.
	nCols    int
	awDual   int
	aw       int   // active sweep width of the current tableau mode
	slackCol []int // per row; -1 for EQ rows
	artCol   []int // per row; EQ rows' sit below awDual, the rest above
	varRows  [][]rowCoef
	dualOK   bool

	// Declared fixes for the node being solved. rhsDelta/substOffset are
	// substitution bookkeeping used by the primal path only; the dual path
	// realizes fixes as bound changes on the live tableau.
	fixedMask   []bool
	fixVal      []float64
	fixedList   []int
	rhsDelta    []float64
	substOffset float64

	// Simplex buffers, reused across solves.
	tab      [][]float64
	backing  []float64
	basis    []int
	basisRow []int // column -> row, -1 if nonbasic
	ub       []float64
	flipped  []bool
	artUsed  []bool
	obj      []float64
	red      []float64
	x        []float64

	// Live dual-path tableau state, for warm starts across nodes.
	tabValid   bool
	tabFix     []int8 // -1 free, else which bound the tableau pins (0/1)
	tabFixN    int
	tabOffset  float64
	pivotCount int // pivots since the last cold build, for refactorization

	// Snapshot of the root-optimal tableau (no fixes). Every node's fix
	// set extends the empty one, so any node — in particular one popped
	// off the frontier from a distant subtree — can warm-start by
	// restoring this snapshot and applying its fixes, instead of paying a
	// cold solve.
	snapValid   bool
	snapBacking []float64
	snapBasis   []int
	snapBRow    []int
	snapUB      []float64
	snapFlipped []bool
	snapObj     []float64
	snapRed     []float64
	snapFix     []int8
	snapOffset  float64
	snapPivots  int

	// Stop, when non-nil, is polled every 256 simplex iterations; once set,
	// the solve in flight returns LimitReached instead of running to
	// optimality. It lets a deadline interrupt a long LP mid-pivot.
	Stop *atomic.Bool

	// Counters (cheap visibility for benchmarks; not part of Solution).
	Iters      int64 // simplex iterations
	WarmSolves int64 // relaxations warm-started from a parent basis
	ColdSolves int64

	heurTick int // branch-and-bound rounding-heuristic throttle
}

type rowCoef struct {
	row  int
	coef float64
}

// rebuildEvery forces a cold rebuild after this many Gauss-Jordan pivots on
// one tableau, bounding accumulated floating-point drift. Snapshot restores
// inherit the snapshot's pivot count, so the budget must comfortably exceed
// one root solve's iterations.
const rebuildEvery = 20000

// NewWorkspace validates and compiles p. The Problem must not be mutated
// while the workspace is in use.
func NewWorkspace(p *Problem) (*Workspace, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	w := &Workspace{p: p, m: len(p.Cons), n: p.NumVars}
	w.slackCol = make([]int, w.m)
	w.artCol = make([]int, w.m)
	col := w.n
	for i, c := range p.Cons {
		if c.Sense == EQ {
			w.slackCol[i] = -1
		} else {
			w.slackCol[i] = col
			col++
		}
	}
	for i, c := range p.Cons {
		if c.Sense == EQ {
			w.artCol[i] = col
			col++
		} else {
			w.artCol[i] = -1
		}
	}
	w.awDual = col
	for i, c := range p.Cons {
		if c.Sense != EQ {
			w.artCol[i] = col
			col++
		}
	}
	w.nCols = col

	w.dualOK = true
	for j := 0; j < w.n; j++ {
		if p.Objective[j] < 0 && math.IsInf(p.ub(j), 1) {
			w.dualOK = false // cannot complement to a dual-feasible start
			break
		}
	}

	w.varRows = make([][]rowCoef, w.n)
	for i, c := range p.Cons {
		for _, t := range c.Terms {
			w.varRows[t.Var] = append(w.varRows[t.Var], rowCoef{row: i, coef: t.Coef})
		}
	}

	w.fixedMask = make([]bool, w.n)
	w.fixVal = make([]float64, w.n)
	w.fixedList = make([]int, 0, w.n)
	w.rhsDelta = make([]float64, w.m)

	stride := w.nCols + 1
	w.backing = make([]float64, w.m*stride)
	w.tab = make([][]float64, w.m)
	for i := range w.tab {
		w.tab[i] = w.backing[i*stride : (i+1)*stride : (i+1)*stride]
	}
	w.basis = make([]int, w.m)
	w.basisRow = make([]int, w.nCols)
	w.ub = make([]float64, w.nCols)
	w.flipped = make([]bool, w.nCols)
	w.artUsed = make([]bool, w.m)
	w.obj = make([]float64, w.nCols)
	w.red = make([]float64, w.nCols)
	w.x = make([]float64, w.n)
	w.tabFix = make([]int8, w.n)
	return w, nil
}

// Reset clears all declared fixes.
func (w *Workspace) Reset() {
	for _, j := range w.fixedList {
		w.fixedMask[j] = false
	}
	w.fixedList = w.fixedList[:0]
	for i := range w.rhsDelta {
		w.rhsDelta[i] = 0
	}
	w.substOffset = 0
}

// Fix pins variable j to v; j must currently be free and v must be one of
// its bounds.
func (w *Workspace) Fix(j int, v float64) {
	if w.fixedMask[j] {
		if w.fixVal[j] == v {
			return
		}
		panic("ilp: re-fixing variable to a different value")
	}
	w.fixedMask[j] = true
	w.fixVal[j] = v
	w.fixedList = append(w.fixedList, j)
	w.substOffset += w.p.Objective[j] * v
	if v != 0 {
		for _, rc := range w.varRows[j] {
			w.rhsDelta[rc.row] -= rc.coef * v
		}
	}
}

// NumFixed reports how many variables are currently fixed.
func (w *Workspace) NumFixed() int { return len(w.fixedList) }

// SolveRelax solves the LP relaxation under the declared fixes. On Optimal
// the returned X aliases an internal buffer valid until the next solve, and
// Objective includes the fixed-variable contribution.
func (w *Workspace) SolveRelax() Solution {
	if w.dualOK {
		return w.solveRelaxDual()
	}
	return w.solveRelaxPrimal()
}

// --- Dual path -----------------------------------------------------------

// solveRelaxDual re-optimizes warm from the live tableau when the declared
// fixes extend the tableau's fix set, and rebuilds cold otherwise.
func (w *Workspace) solveRelaxDual() Solution {
	// The dual path realizes fixes as bound changes, so it can only pin a
	// variable at one of its bounds; route anything else to substitution.
	for _, j := range w.fixedList {
		if v := w.fixVal[j]; v != 0 && v != w.p.ub(j) {
			return w.solveRelaxPrimal()
		}
	}
	if w.tabValid && w.pivotCount < rebuildEvery && w.warmCompatible() {
		w.WarmSolves++
		w.applyFixDiff()
		if sol, ok := w.finishDual(); ok {
			return sol
		}
		// Warm start ran out of iterations; fall through to a cold solve.
	} else if w.snapValid {
		w.WarmSolves++
		w.restoreSnapshot()
		w.applyFixDiff()
		if sol, ok := w.finishDual(); ok {
			return sol
		}
	}
	w.ColdSolves++
	w.buildDual()
	sol, ok := w.finishDual()
	if ok {
		if sol.Status == Optimal && len(w.fixedList) == 0 && !w.snapValid {
			w.saveSnapshot()
		}
		return sol
	}
	w.tabValid = false
	return Solution{Status: LimitReached}
}

func (w *Workspace) saveSnapshot() {
	w.snapBacking = append(w.snapBacking[:0], w.backing...)
	w.snapBasis = append(w.snapBasis[:0], w.basis...)
	w.snapBRow = append(w.snapBRow[:0], w.basisRow...)
	w.snapUB = append(w.snapUB[:0], w.ub...)
	w.snapFlipped = append(w.snapFlipped[:0], w.flipped...)
	w.snapObj = append(w.snapObj[:0], w.obj...)
	w.snapRed = append(w.snapRed[:0], w.red...)
	w.snapFix = append(w.snapFix[:0], w.tabFix...)
	w.snapOffset = w.tabOffset
	w.snapPivots = w.pivotCount
	w.snapValid = true
}

func (w *Workspace) restoreSnapshot() {
	copy(w.backing, w.snapBacking)
	copy(w.basis, w.snapBasis)
	copy(w.basisRow, w.snapBRow)
	copy(w.ub, w.snapUB)
	copy(w.flipped, w.snapFlipped)
	copy(w.obj, w.snapObj)
	copy(w.red, w.snapRed)
	copy(w.tabFix, w.snapFix)
	w.tabOffset = w.snapOffset
	w.tabFixN = 0
	w.pivotCount = w.snapPivots
	w.aw = w.awDual // snapshots are only ever taken in dual mode
	w.tabValid = true
}

func (w *Workspace) finishDual() (Solution, bool) {
	val, status := w.dualSimplex()
	switch status {
	case Optimal:
		return Solution{Status: Optimal, X: w.extract(), Objective: val}, true
	case Infeasible:
		// The tableau stays dual feasible, so later nodes can still warm
		// start from it.
		return Solution{Status: Infeasible}, true
	}
	return Solution{}, false
}

// warmCompatible reports whether the declared fixes are a superset of the
// fixes the live tableau encodes (with matching values). Only additions
// preserve dual feasibility; anything else needs a cold rebuild.
func (w *Workspace) warmCompatible() bool {
	if len(w.fixedList) < w.tabFixN {
		return false
	}
	match := 0
	for _, j := range w.fixedList {
		if tv := w.tabFix[j]; tv >= 0 {
			want := int8(0)
			if w.fixVal[j] != 0 {
				want = 1 // pinned at its upper bound
			}
			if tv != want {
				return false
			}
			match++
		}
	}
	return match == w.tabFixN
}

// applyFixDiff imposes the declared fixes not yet in the tableau as bound
// changes: a variable fixed away from the bound its column currently
// represents is complemented first, then pinned with a zero upper bound.
// Reduced costs are untouched, so the tableau stays dual feasible; the
// dual simplex repairs the primal infeasibilities this creates.
func (w *Workspace) applyFixDiff() {
	for _, j := range w.fixedList {
		if w.tabFix[j] >= 0 {
			continue
		}
		v := w.fixVal[j]
		atZero := 0.0
		if w.flipped[j] {
			atZero = w.p.ub(j)
		}
		if math.Abs(v-atZero) > eps {
			if r := w.basisRow[j]; r >= 0 {
				w.complementBasic(r)
			} else {
				w.complementCol(j, w.obj, &w.tabOffset)
			}
		}
		w.ub[j] = 0
		if v != 0 {
			w.tabFix[j] = 1
		} else {
			w.tabFix[j] = 0
		}
		w.tabFixN++
	}
}

// buildDual fills the tableau cold: every LE/GE row normalized to <= form
// with its slack basic (RHS may be negative — the dual iterations repair
// that), EQ rows based on an artificial pinned at zero, negative-cost
// columns complemented for dual feasibility, then the declared fixes
// applied. No phase 1 is ever needed.
func (w *Workspace) buildDual() {
	w.aw = w.awDual
	for i := 0; i < w.m; i++ {
		row := w.tab[i]
		for j := range row {
			row[j] = 0
		}
		c := &w.p.Cons[i]
		sign := 1.0
		if c.Sense == GE {
			sign = -1
		}
		for _, t := range c.Terms {
			row[t.Var] += sign * t.Coef
		}
		row[w.nCols] = sign * c.RHS
		if c.Sense == EQ {
			a := w.artCol[i]
			row[a] = 1
			w.basis[i] = a
		} else {
			s := w.slackCol[i]
			row[s] = 1
			w.basis[i] = s
		}
	}
	for j := range w.basisRow {
		w.basisRow[j] = -1
	}
	for i, b := range w.basis {
		w.basisRow[b] = i
	}
	for j := 0; j < w.n; j++ {
		w.ub[j] = w.p.ub(j)
	}
	for j := w.n; j < w.nCols; j++ {
		w.ub[j] = math.Inf(1)
	}
	for i := 0; i < w.m; i++ {
		switch w.p.Cons[i].Sense {
		case EQ:
			w.ub[w.artCol[i]] = 0 // pinned artificial basis forces equality
		case RNG:
			// The bounded slack realizes the row's lower side: with
			// sum + s = RHS and s <= RHS-LB, the sum cannot drop below LB.
			w.ub[w.slackCol[i]] = w.p.Cons[i].RHS - w.p.Cons[i].LB
		}
	}
	for j := range w.flipped {
		w.flipped[j] = false
	}
	for j := range w.tabFix {
		w.tabFix[j] = -1
	}
	w.tabFixN = 0
	w.tabOffset = 0
	for j := 0; j < w.nCols; j++ {
		w.obj[j] = 0
	}
	copy(w.obj[:w.n], w.p.Objective)
	// All-slack basis has zero cost, so the reduced costs start as the
	// objective; complementing the negative ones yields dual feasibility.
	copy(w.red, w.obj)
	for j := 0; j < w.n; j++ {
		if w.obj[j] < 0 {
			w.complementCol(j, w.obj, &w.tabOffset)
		}
	}
	w.pivotCount = 0
	w.tabValid = true
	w.applyFixDiff()
}

const ptol = 1e-7 // primal feasibility tolerance on basic values

// dualSimplex restores primal feasibility while maintaining dual
// feasibility (reduced costs >= 0 up to tolerance), which makes the final
// basis optimal. Leaving row: most-violated bound (a basic above its upper
// bound is complemented first, making "below zero" the only case).
// Entering: minimum dual ratio red_j / -t_rj, index tie-break. After a
// degeneracy streak both rules fall back to smallest-index (Bland) to
// break cycles. All selection is deterministic for a given tableau.
func (w *Workspace) dualSimplex() (float64, Status) {
	m, N := w.m, w.nCols
	degenerate := 0
	for iter := 0; iter < simplexMaxIters; iter++ {
		w.Iters++
		if iter&255 == 255 && w.Stop != nil && w.Stop.Load() {
			return 0, LimitReached
		}
		leave := -1
		if degenerate < 40 {
			worst := ptol
			for i := 0; i < m; i++ {
				v := w.tab[i][N]
				viol := -v
				if u := w.ub[w.basis[i]]; !math.IsInf(u, 1) && v-u > viol {
					viol = v - u
				}
				if viol > worst {
					worst = viol
					leave = i
				}
			}
		} else {
			// Bland-style anti-cycling: the violated row whose basic
			// variable has the smallest index.
			for i := 0; i < m; i++ {
				v := w.tab[i][N]
				if v < -ptol || v > w.ub[w.basis[i]]+ptol {
					if leave < 0 || w.basis[i] < w.basis[leave] {
						leave = i
					}
				}
			}
		}
		if leave < 0 {
			val := w.tabOffset
			for i := 0; i < m; i++ {
				if cb := w.obj[w.basis[i]]; cb != 0 {
					val += cb * w.tab[i][N]
				}
			}
			return val, Optimal
		}
		if w.tab[leave][N] > -ptol {
			// Above its upper bound: complement so the violation reads as
			// "below zero" and the standard ratio test applies.
			w.complementBasic(leave)
		}
		// Entering must be min-ratio regardless of the anti-cycling mode —
		// anything else would break dual feasibility. Scanning ascending
		// with a strict improvement test makes ties resolve to the
		// smallest index.
		row := w.tab[leave]
		enter := -1
		best := math.Inf(1)
		for j := 0; j < w.aw; j++ {
			if row[j] < -eps && w.ub[j] > eps {
				r := w.red[j]
				if r < 0 {
					r = 0
				}
				if ratio := r / -row[j]; ratio < best-eps {
					best = ratio
					enter = j
				}
			}
		}
		if enter < 0 {
			return 0, Infeasible
		}
		if w.red[enter] < eps {
			degenerate++
		} else {
			degenerate = 0
		}
		w.pivotRed(leave, enter)
	}
	return 0, LimitReached
}

// complementBasic rewrites the basic column of row r in terms of its
// complement; the re-expression is exact at any value, so it is also how a
// basic variable is forced toward the other bound.
func (w *Workspace) complementBasic(r int) {
	l := w.basis[r]
	w.complementCol(l, w.obj, &w.tabOffset)
	row := w.tab[r]
	for j := 0; j < w.aw; j++ {
		row[j] = -row[j]
	}
	row[w.nCols] = -row[w.nCols]
}

// --- Primal path ---------------------------------------------------------

// solveRelaxPrimal is the general-purpose two-phase solve; fixes are
// substituted out (zeroed columns, RHS deltas). It is the only path that
// can report Unbounded.
func (w *Workspace) solveRelaxPrimal() Solution {
	w.ColdSolves++
	w.tabValid = false
	w.buildPrimal()
	// Phase 1: minimize the sum of artificials in the starting basis.
	anyArt := false
	for i := 0; i < w.m; i++ {
		if w.artUsed[i] {
			anyArt = true
			break
		}
	}
	if anyArt {
		for j := range w.obj {
			w.obj[j] = 0
		}
		for i := 0; i < w.m; i++ {
			if w.artUsed[i] {
				w.obj[w.artCol[i]] = 1
			}
		}
		offset := 0.0
		val, status := w.primalSimplex(w.obj, &offset)
		if status != Optimal || val > 1e-7 {
			return Solution{Status: Infeasible}
		}
	}
	// Pin every artificial at zero: with ub 0 they can neither re-enter nor
	// grow while basic (any move through their row hits the bound at step
	// 0), which replaces the seed's explicit drive-out-and-forbid pass.
	for i := 0; i < w.m; i++ {
		w.ub[w.artCol[i]] = 0
	}
	// Phase 2: the true objective over free structural columns.
	offset := w.substOffset
	for j := 0; j < w.nCols; j++ {
		w.obj[j] = 0
	}
	for j := 0; j < w.n; j++ {
		if w.fixedMask[j] {
			continue
		}
		c := w.p.Objective[j]
		if w.flipped[j] {
			offset += c * w.ub[j]
			w.obj[j] = -c
		} else {
			w.obj[j] = c
		}
	}
	val, status := w.primalSimplex(w.obj, &offset)
	switch status {
	case Unbounded:
		return Solution{Status: Unbounded}
	case LimitReached:
		return Solution{Status: LimitReached}
	}
	return Solution{Status: Optimal, X: w.extract(), Objective: val}
}

// buildPrimal fills the tableau for the substitution form: fixed columns
// zeroed, RHS shifted, rows sign-normalized to a nonnegative RHS, LE rows
// starting with their slack basic and GE/EQ rows with their artificial.
func (w *Workspace) buildPrimal() {
	w.aw = w.nCols
	for i := 0; i < w.m; i++ {
		row := w.tab[i]
		for j := range row {
			row[j] = 0
		}
		c := &w.p.Cons[i]
		rhs := c.RHS + w.rhsDelta[i]
		sign := 1.0
		effSense := c.Sense
		if rhs < 0 {
			sign, rhs = -1, -rhs
			switch effSense {
			case LE:
				effSense = GE
			case GE:
				effSense = LE
			}
		}
		for _, t := range c.Terms {
			if !w.fixedMask[t.Var] {
				row[t.Var] += sign * t.Coef
			}
		}
		row[w.nCols] = rhs
		switch effSense {
		case LE:
			s := w.slackCol[i]
			row[s] = 1
			w.basis[i] = s
			w.artUsed[i] = false
		case GE:
			row[w.slackCol[i]] = -1
			a := w.artCol[i]
			row[a] = 1
			w.basis[i] = a
			w.artUsed[i] = true
		case EQ:
			a := w.artCol[i]
			row[a] = 1
			w.basis[i] = a
			w.artUsed[i] = true
		case RNG:
			// The bounded slack may not cover the starting value, so base
			// the row on an artificial with the slack nonbasic at zero.
			row[w.slackCol[i]] = sign
			a := w.artCol[i]
			row[a] = 1
			w.basis[i] = a
			w.artUsed[i] = true
		}
	}
	for j := range w.basisRow {
		w.basisRow[j] = -1
	}
	for i, b := range w.basis {
		w.basisRow[b] = i
	}
	for j := 0; j < w.n; j++ {
		if w.fixedMask[j] {
			w.ub[j] = 0
		} else {
			w.ub[j] = w.p.ub(j)
		}
	}
	for j := w.n; j < w.nCols; j++ {
		w.ub[j] = math.Inf(1)
	}
	for i := 0; i < w.m; i++ {
		if c := &w.p.Cons[i]; c.Sense == RNG {
			w.ub[w.slackCol[i]] = c.RHS - c.LB
		}
	}
	for j := range w.flipped {
		w.flipped[j] = false
	}
}

const simplexMaxIters = 50000

// primalSimplex minimizes obj over the current tableau with implicit
// bounds [0, ub]. Nonbasic variables at their upper bound are complemented,
// so the invariant "every nonbasic variable is at zero" of the plain
// method holds throughout. Column selection is Dantzig's rule with a Bland
// fallback after a degeneracy streak; all tie-breaks are index-based so a
// given tableau solves identically on every run.
func (w *Workspace) primalSimplex(obj []float64, offset *float64) (float64, Status) {
	m, N := w.m, w.aw
	red := w.red
	degenerate := 0
	for iter := 0; iter < simplexMaxIters; iter++ {
		w.Iters++
		if iter&255 == 255 && w.Stop != nil && w.Stop.Load() {
			return 0, LimitReached
		}
		copy(red[:N], obj[:N])
		for i := 0; i < m; i++ {
			cb := obj[w.basis[i]]
			if cb == 0 {
				continue
			}
			row := w.tab[i]
			for j := 0; j < N; j++ {
				if row[j] != 0 {
					red[j] -= cb * row[j]
				}
			}
		}
		enter := -1
		if degenerate < 40 {
			best := -1e-9
			for j := 0; j < N; j++ {
				if red[j] < best && w.ub[j] > eps {
					best = red[j]
					enter = j
				}
			}
		} else { // Bland fallback: first improving column.
			for j := 0; j < N; j++ {
				if red[j] < -1e-9 && w.ub[j] > eps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			val := *offset
			for i := 0; i < m; i++ {
				if cb := obj[w.basis[i]]; cb != 0 {
					val += cb * w.tab[i][w.nCols]
				}
			}
			return val, Optimal
		}
		// Ratio test: the entering variable rises from 0 until a basic
		// variable hits a bound or the entering variable hits its own upper
		// bound (a bound flip, handled by complementing the column).
		leave, leaveAtUpper := -1, false
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			a := w.tab[i][enter]
			var ratio float64
			var atUpper bool
			if a > eps {
				ratio = w.tab[i][w.nCols] / a
			} else if a < -eps && !math.IsInf(w.ub[w.basis[i]], 1) {
				ratio = (w.ub[w.basis[i]] - w.tab[i][w.nCols]) / -a
				atUpper = true
			} else {
				continue
			}
			if ratio < best-eps || (ratio < best+eps && (leave < 0 || w.basis[i] < w.basis[leave])) {
				best = ratio
				leave = i
				leaveAtUpper = atUpper
			}
		}
		if flip := w.ub[enter]; leave < 0 || flip < best-eps {
			if leave < 0 && math.IsInf(flip, 1) {
				return 0, Unbounded
			}
			w.complementCol(enter, obj, offset)
			degenerate = 0 // a flip moves by ub[enter] > eps
			continue
		}
		if best < eps {
			degenerate++
		} else {
			degenerate = 0
		}
		leavingCol := w.basis[leave]
		w.pivot(leave, enter)
		if leaveAtUpper {
			w.complementCol(leavingCol, obj, offset)
		}
	}
	return 0, LimitReached
}

// --- Shared pieces -------------------------------------------------------

// extract reads the structural solution out of the tableau, filling fixed
// variables from the fix table.
func (w *Workspace) extract() []float64 {
	for j := 0; j < w.n; j++ {
		switch {
		case w.fixedMask[j]:
			w.x[j] = w.fixVal[j]
		case w.flipped[j]:
			w.x[j] = w.p.ub(j)
		default:
			w.x[j] = 0
		}
	}
	for i := 0; i < w.m; i++ {
		b := w.basis[i]
		if b >= w.n || w.fixedMask[b] {
			continue
		}
		v := w.tab[i][w.nCols]
		if w.flipped[b] {
			v = w.p.ub(b) - v
		}
		w.x[b] = v
	}
	return w.x
}

// complementCol rewrites column j in terms of its complement ub_j - x_j,
// flipping its bound status. Only finite-bound columns are complemented.
// The reduced cost flips sign with the column.
func (w *Workspace) complementCol(j int, obj []float64, offset *float64) {
	u := w.ub[j]
	N := w.nCols
	for i := 0; i < w.m; i++ {
		row := w.tab[i]
		if t := row[j]; t != 0 {
			row[N] -= t * u
			row[j] = -t
		}
	}
	if obj[j] != 0 {
		*offset += obj[j] * u
		obj[j] = -obj[j]
	}
	w.red[j] = -w.red[j]
	w.flipped[j] = !w.flipped[j]
}

// pivot performs a Gauss-Jordan pivot on tab[row][col]. Sweeps cover the
// active width plus the RHS column; columns beyond aw are identically zero
// in the current mode.
func (w *Workspace) pivot(row, col int) {
	N, R := w.aw, w.nCols
	pr := w.tab[row]
	pv := pr[col]
	for j := 0; j < N; j++ {
		pr[j] /= pv
	}
	pr[R] /= pv
	for i := range w.tab {
		if i == row {
			continue
		}
		ri := w.tab[i]
		f := ri[col]
		if f == 0 {
			continue
		}
		for j := 0; j < N; j++ {
			ri[j] -= f * pr[j]
		}
		ri[R] -= f * pr[R]
	}
	w.basisRow[w.basis[row]] = -1
	w.basis[row] = col
	w.basisRow[col] = row
	w.pivotCount++
}

// pivotRed pivots and updates the live reduced-cost row incrementally
// (red_j -= red_enter * t'_rj), avoiding the O(m*N) recomputation per
// iteration the primal path pays.
func (w *Workspace) pivotRed(row, col int) {
	w.pivot(row, col)
	re := w.red[col]
	if re == 0 {
		return
	}
	pr := w.tab[row]
	red := w.red
	for j := 0; j < w.aw; j++ {
		if pr[j] != 0 {
			red[j] -= re * pr[j]
		}
	}
}
