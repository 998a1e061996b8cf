package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"snvmm/internal/telemetry"
)

// randomCoverInstance builds a small random covering-flavored 0/1 program:
// unit-cost-ish objective, per-element coverage windows (a mix of GE and
// two-sided RNG rows), and occasionally a weighted total-coverage row —
// the same row shapes the PoE placement formulation emits.
func randomCoverInstance(rng *rand.Rand) *Problem {
	n := 4 + rng.Intn(9) // 4..12 variables
	p := &Problem{NumVars: n, Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = float64(1 + rng.Intn(3))
	}
	rows := 2 + rng.Intn(n)
	for r := 0; r < rows; r++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				terms = append(terms, Term{Var: j, Coef: 1})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: rng.Intn(n), Coef: 1})
		}
		if rng.Intn(2) == 0 {
			p.Cons = append(p.Cons, Constraint{Terms: terms, Sense: GE, RHS: 1})
		} else {
			ub := 1 + rng.Intn(2)
			p.Cons = append(p.Cons, Constraint{Terms: terms, Sense: RNG, LB: 1, RHS: float64(ub)})
		}
	}
	if rng.Intn(2) == 0 {
		terms := make([]Term, n)
		total := 0
		for j := range terms {
			w := 1 + rng.Intn(3)
			terms[j] = Term{Var: j, Coef: float64(w)}
			total += w
		}
		p.Cons = append(p.Cons, Constraint{Terms: terms, Sense: GE, RHS: float64(total / 3)})
	}
	return p
}

// bruteForce enumerates all 2^n assignments and returns the optimal
// objective, or +Inf if the instance is infeasible, together with the
// lexicographically smallest optimal assignment (x_0 = 0 preferred first,
// then x_1, ...), or nil.
func bruteForce(p *Problem) (float64, []float64) {
	n := p.NumVars
	best := math.Inf(1)
	var lexMin []float64
	x := make([]float64, n)
	for mask := 0; mask < 1<<n; mask++ {
		for j := 0; j < n; j++ {
			x[j] = float64((mask >> j) & 1)
		}
		if !feasible(p, x) {
			continue
		}
		v := objValue(p, x)
		if v < best-1e-9 || (v < best+1e-9 && lexLess(x, lexMin)) {
			best = v
			lexMin = append(lexMin[:0], x...)
		}
	}
	return best, lexMin
}

// lexLess reports whether a precedes b lexicographically; nil b sorts last.
func lexLess(a, b []float64) bool {
	if b == nil {
		return true
	}
	for j := range a {
		if a[j] != b[j] {
			return a[j] < b[j]
		}
	}
	return false
}

// TestSolveILPMatchesEnumeration cross-checks the branch and bound against
// exhaustive enumeration on random small instances.
func TestSolveILPMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for it := 0; it < iters; it++ {
		p := randomCoverInstance(rng)
		want, _ := bruteForce(p)
		sol, err := SolveILP(p, ILPOptions{IntegralObjective: true})
		if err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		if math.IsInf(want, 1) {
			if sol.Status != Infeasible {
				t.Fatalf("iter %d: status %v, enumeration says infeasible", it, sol.Status)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("iter %d: status %v, want optimal", it, sol.Status)
		}
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("iter %d: objective %g, enumeration %g", it, sol.Objective, want)
		}
		if !feasible(p, sol.X) {
			t.Fatalf("iter %d: returned X infeasible", it)
		}
		if sol.BestBound > sol.Objective+1e-6 || sol.RelGap != 0 {
			t.Fatalf("iter %d: bound %g gap %g for proven optimum %g",
				it, sol.BestBound, sol.RelGap, sol.Objective)
		}
	}
}

// TestSolveILPCanonicalIsLexMin pins the Canonicalize contract: the
// returned vector is the lexicographically smallest optimal assignment, as
// enumeration finds it, whichever optimum the search reached first.
func TestSolveILPCanonicalIsLexMin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	iters := 30
	if testing.Short() {
		iters = 8
	}
	for it := 0; it < iters; it++ {
		p := randomCoverInstance(rng)
		_, want := bruteForce(p)
		sol, err := SolveILP(p, ILPOptions{IntegralObjective: true, Canonicalize: true})
		if err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		if want == nil {
			if sol.Status != Infeasible {
				t.Fatalf("iter %d: status %v, enumeration says infeasible", it, sol.Status)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("iter %d: status %v, want optimal", it, sol.Status)
		}
		for j := range want {
			if sol.X[j] != want[j] {
				t.Fatalf("iter %d: canonical X diverges at x%d: %v, lex-min %v", it, j, sol.X, want)
			}
		}
	}
}

// TestCanonicalizeCountsProbeNodes: the nodes the canonicalization probes
// expand count towards Solution.Nodes and the ilp.nodes counter. Every
// index the canonical vector keeps at 1 was probed, and a probe expands at
// least its root, so a canonicalized solve must report at least the plain
// search's nodes plus that many more.
func TestCanonicalizeCountsProbeNodes(t *testing.T) {
	p := oddCycleProblem(16)
	plain, err := SolveILP(p, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	canon, err := SolveILP(p, ILPOptions{Canonicalize: true, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if canon.Status != Optimal {
		t.Fatalf("status %v, want optimal", canon.Status)
	}
	probes := int64(0)
	for _, v := range canon.X {
		if v == 1 {
			probes++
		}
	}
	if probes == 0 {
		t.Fatal("canonical optimum is all zero: no probe ran, test is vacuous")
	}
	if canon.Nodes < plain.Nodes+probes {
		t.Fatalf("canonicalized solve reports %d nodes, want >= %d search + %d probes", canon.Nodes, plain.Nodes, probes)
	}
	if got := reg.Counter("ilp.nodes").Load(); got != canon.Nodes {
		t.Fatalf("ilp.nodes counter %d, Solution.Nodes %d", got, canon.Nodes)
	}
}

// TestSolveILPDeterministic checks that the search itself, without
// Canonicalize, is a function of the problem: two solves return the same
// vector, node count and number of incumbent updates. The odd-cycle
// instances branch for tens of nodes through several incumbents.
func TestSolveILPDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	probs := []*Problem{oddCycleProblem(16), oddCycleProblem(20)}
	for i := 0; i < 10; i++ {
		probs = append(probs, randomCoverInstance(rng))
	}
	for i, p := range probs {
		a, err := SolveILP(p, ILPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := SolveILP(p, ILPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Status != b.Status || a.Nodes != b.Nodes || a.IncumbentUpdates != b.IncumbentUpdates {
			t.Fatalf("problem %d: status/nodes/updates %v/%d/%d vs %v/%d/%d", i,
				a.Status, a.Nodes, a.IncumbentUpdates, b.Status, b.Nodes, b.IncumbentUpdates)
		}
		if len(a.X) != len(b.X) {
			t.Fatalf("problem %d: X lengths %d vs %d", i, len(a.X), len(b.X))
		}
		for j := range a.X {
			if a.X[j] != b.X[j] {
				t.Fatalf("problem %d: X diverges at x%d", i, j)
			}
		}
	}
}

// oddCycleProblem is a maximum-independent-set style program over n
// variables: maximize the selected count (minimize -sum x) with every
// window {j, j+1, j+5} (mod n) holding at most one selection.
func oddCycleProblem(n int) *Problem {
	p := &Problem{NumVars: n, Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = -1
	}
	for j := 0; j < n; j++ {
		p.Cons = append(p.Cons, Constraint{
			Terms: []Term{{j, 1}, {(j + 1) % n, 1}, {(j + 5) % n, 1}},
			Sense: LE, RHS: 1,
		})
	}
	return p
}

// TestSolveILPContextCancel checks that a cancelled context stops the search
// and surfaces the incumbent as LimitReached.
func TestSolveILPContextCancel(t *testing.T) {
	// The pre-cancelled context must stop the search before its first node.
	p := oddCycleProblem(24)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sol, err := SolveILPContext(ctx, p, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != LimitReached || sol.Nodes != 0 {
		t.Errorf("status %v after %d nodes, want limit-reached at 0 on cancelled context", sol.Status, sol.Nodes)
	}

	// A short deadline must also stop the search well before the node
	// budget. Use a 20x20 grid cross-covering instance (the PoE placement
	// shape): its root relaxation alone takes about 30 times the deadline
	// (1.5 s on a 2.1 GHz Xeon), so the deadline must interrupt that LP
	// mid-solve (Workspace.Stop). An interrupted root has no bound, which
	// leaves the proven bound at -Inf; a root LP run to completion would
	// have set a finite one.
	hard := gridCoverProblem(20, 20)
	ctx, cancel = context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	sol, err = SolveILPContext(ctx, hard, ILPOptions{MaxNodes: 100000000})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != LimitReached {
		t.Errorf("status %v, want limit-reached on deadline", sol.Status)
	}
	if sol.Nodes >= 100000000 {
		t.Errorf("nodes %d suggests deadline did not interrupt", sol.Nodes)
	}
	if !math.IsInf(sol.BestBound, -1) {
		t.Errorf("best bound %g: the deadline did not interrupt the root LP", sol.BestBound)
	}
}

// gridCoverProblem builds the Table 1 covering program for an R x C grid
// with the paper's clipped cross footprint (vertical reach 4, horizontal
// reach 1): minimize selected cells subject to every cell being covered by
// 1..2 selected crosses. Mirrors the internal/poe formulation without
// importing it.
func gridCoverProblem(rows, cols int) *Problem {
	n := rows * cols
	idx := func(r, c int) int { return r*cols + c }
	coveredBy := make([][]int, n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := idx(r, c)
			add := func(rr, cc int) {
				if rr >= 0 && rr < rows && cc >= 0 && cc < cols {
					coveredBy[idx(rr, cc)] = append(coveredBy[idx(rr, cc)], i)
				}
			}
			for d := -4; d <= 4; d++ {
				add(r+d, c)
			}
			add(r, c-1)
			add(r, c+1)
		}
	}
	p := &Problem{NumVars: n, Objective: make([]float64, n)}
	for j := range p.Objective {
		p.Objective[j] = 1
	}
	for m := 0; m < n; m++ {
		terms := make([]Term, len(coveredBy[m]))
		for k, i := range coveredBy[m] {
			terms[k] = Term{Var: i, Coef: 1}
		}
		p.Cons = append(p.Cons, Constraint{Terms: terms, Sense: RNG, LB: 1, RHS: 2})
	}
	return p
}

// TestSolveLPRangeRow pins the RNG sense semantics on a hand-checked LP.
func TestSolveLPRangeRow(t *testing.T) {
	// min x + 2y s.t. 1 <= x + y <= 2 with x,y in [0,1]: optimum x=1, y=0.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 2},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: RNG, LB: 1, RHS: 2},
		},
	}
	sol, err := SolveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-1) > 1e-7 {
		t.Fatalf("got %v obj %g, want optimal 1", sol.Status, sol.Objective)
	}
	// Upper side: min -x - 2y under the same row -> x=1, y=1 infeasible
	// (sum 2 allowed), so optimum -3 at x=1,y=1? sum=2 <= 2: feasible.
	p2 := &Problem{
		NumVars:   2,
		Objective: []float64{-1, -2},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: RNG, LB: 1, RHS: 2},
		},
	}
	sol, err = SolveLP(p2)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective+3) > 1e-7 {
		t.Fatalf("upper side: got %v obj %g, want -3", sol.Status, sol.Objective)
	}
	// Binding upper side: cap the sum at 1.5.
	p2.Cons[0].RHS = 1.5
	sol, err = SolveLP(p2)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective+2.5) > 1e-7 {
		t.Fatalf("capped: got %v obj %g, want -2.5 (y=1, x=0.5)", sol.Status, sol.Objective)
	}
	// Invalid range must be rejected.
	bad := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Cons:      []Constraint{{Terms: []Term{{0, 1}}, Sense: RNG, LB: 2, RHS: 1}},
	}
	if _, err := SolveLP(bad); err == nil {
		t.Error("expected validation error for inverted range")
	}
}

// TestWorkspaceWarmMatchesCold drives one workspace through a randomized
// sequence of fix sets — dives (supersets, warm-started) interleaved with
// jumps to unrelated fix sets (snapshot restores) — and checks every
// relaxation against a fresh cold workspace.
func TestWorkspaceWarmMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for inst := 0; inst < 10; inst++ {
		p := randomCoverInstance(rng)
		warm, err := NewWorkspace(p)
		if err != nil {
			t.Fatal(err)
		}
		fixes := map[int]float64{}
		for step := 0; step < 40; step++ {
			switch rng.Intn(3) {
			case 0: // extend the dive
				j := rng.Intn(p.NumVars)
				if _, ok := fixes[j]; !ok {
					fixes[j] = float64(rng.Intn(2))
				}
			case 1: // jump to a fresh branch
				fixes = map[int]float64{rng.Intn(p.NumVars): float64(rng.Intn(2))}
			default: // stay
			}
			warm.Reset()
			for j, v := range fixes {
				warm.Fix(j, v)
			}
			got := warm.SolveRelax()

			cold, err := NewWorkspace(p)
			if err != nil {
				t.Fatal(err)
			}
			for j, v := range fixes {
				cold.Fix(j, v)
			}
			want := cold.SolveRelax()
			if got.Status != want.Status {
				t.Fatalf("inst %d step %d fixes %v: warm %v vs cold %v", inst, step, fixes, got.Status, want.Status)
			}
			if got.Status == Optimal && math.Abs(got.Objective-want.Objective) > 1e-6 {
				t.Fatalf("inst %d step %d fixes %v: warm obj %g vs cold %g", inst, step, fixes, got.Objective, want.Objective)
			}
		}
	}
}
