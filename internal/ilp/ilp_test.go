package ilp

import (
	"math"
	"testing"
)

func TestSolveLPBasic(t *testing.T) {
	// min -x - y s.t. x + y <= 1.5, 0 <= x,y <= 1 -> optimum -1.5.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{-1, -1},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: LE, RHS: 1.5},
		},
	}
	sol, err := SolveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	if math.Abs(sol.Objective+1.5) > 1e-7 {
		t.Errorf("objective %g, want -1.5", sol.Objective)
	}
}

func TestSolveLPEquality(t *testing.T) {
	// min x + y s.t. x + 2y == 2, 0<=x,y<=1 -> y=1, x=0, obj 1.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}, {1, 2}}, Sense: EQ, RHS: 2},
		},
	}
	sol, err := SolveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-1) > 1e-7 {
		t.Errorf("got %v obj %g, want optimal 1", sol.Status, sol.Objective)
	}
	if math.Abs(sol.X[1]-1) > 1e-7 {
		t.Errorf("X = %v, want y=1", sol.X)
	}
}

func TestSolveLPGE(t *testing.T) {
	// min x s.t. x >= 0.7 -> 0.7.
	p := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Cons:      []Constraint{{Terms: []Term{{0, 1}}, Sense: GE, RHS: 0.7}},
	}
	sol, err := SolveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-0.7) > 1e-7 {
		t.Errorf("got %v %g", sol.Status, sol.Objective)
	}
}

func TestSolveLPInfeasible(t *testing.T) {
	// x <= 0.3 and x >= 0.7 with one variable.
	p := &Problem{
		NumVars:   1,
		Objective: []float64{0},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}}, Sense: LE, RHS: 0.3},
			{Terms: []Term{{0, 1}}, Sense: GE, RHS: 0.7},
		},
	}
	sol, err := SolveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status %v, want infeasible", sol.Status)
	}
}

func TestSolveLPUnboundedGuardedByUB(t *testing.T) {
	// With default binary relaxation bounds nothing is unbounded; with
	// infinite UB and a negative objective it is.
	p := &Problem{
		NumVars:   1,
		Objective: []float64{-1},
		UB:        []float64{math.Inf(1)},
	}
	sol, err := SolveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Errorf("status %v, want unbounded", sol.Status)
	}
}

func TestSolveLPNegativeRHS(t *testing.T) {
	// -x <= -0.25  <=>  x >= 0.25.
	p := &Problem{
		NumVars:   1,
		Objective: []float64{1},
		Cons:      []Constraint{{Terms: []Term{{0, -1}}, Sense: LE, RHS: -0.25}},
	}
	sol, err := SolveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-0.25) > 1e-7 {
		t.Errorf("got %v %g, want 0.25", sol.Status, sol.Objective)
	}
}

func TestValidation(t *testing.T) {
	if _, err := SolveLP(&Problem{NumVars: 0}); err == nil {
		t.Error("expected error for zero vars")
	}
	if _, err := SolveLP(&Problem{NumVars: 1, Objective: []float64{1, 2}}); err == nil {
		t.Error("expected objective length error")
	}
	p := &Problem{NumVars: 1, Objective: []float64{1},
		Cons: []Constraint{{Terms: []Term{{3, 1}}, Sense: LE, RHS: 1}}}
	if _, err := SolveLP(p); err == nil {
		t.Error("expected var range error")
	}
}

func TestSolveILPKnapsack(t *testing.T) {
	// max 10x0 + 13x1 + 7x2 s.t. 3x0 + 4x1 + 2x2 <= 6 (binary).
	// Optimum: x0=0? Try subsets: {0,1}: w7 no; {1,2}: w6 val 20; {0,2}:
	// w5 val 17. Best = 20.
	p := &Problem{
		NumVars:   3,
		Objective: []float64{-10, -13, -7},
		Cons: []Constraint{
			{Terms: []Term{{0, 3}, {1, 4}, {2, 2}}, Sense: LE, RHS: 6},
		},
	}
	sol, err := SolveILP(p, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective+20) > 1e-6 {
		t.Fatalf("got %v obj %g, want -20", sol.Status, sol.Objective)
	}
	if sol.X[1] != 1 || sol.X[2] != 1 || sol.X[0] != 0 {
		t.Errorf("X = %v, want [0 1 1]", sol.X)
	}
}

func TestSolveILPSetCover(t *testing.T) {
	// Universe {0..4}; sets S0={0,1}, S1={1,2,3}, S2={3,4}, S3={0,2,4}.
	// min sets covering all. {S1,S3} covers {1,2,3}+{0,2,4} = all -> 2.
	sets := [][]int{{0, 1}, {1, 2, 3}, {3, 4}, {0, 2, 4}}
	p := &Problem{
		NumVars:   4,
		Objective: []float64{1, 1, 1, 1},
	}
	for e := 0; e < 5; e++ {
		var terms []Term
		for s, mem := range sets {
			for _, x := range mem {
				if x == e {
					terms = append(terms, Term{s, 1})
				}
			}
		}
		p.Cons = append(p.Cons, Constraint{Terms: terms, Sense: GE, RHS: 1})
	}
	sol, err := SolveILP(p, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-2) > 1e-6 {
		t.Fatalf("got %v obj %g, want 2", sol.Status, sol.Objective)
	}
}

func TestSolveILPInfeasible(t *testing.T) {
	// x0 + x1 == 1 and x0 + x1 >= 2 over binaries.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: EQ, RHS: 1},
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: GE, RHS: 2},
		},
	}
	sol, err := SolveILP(p, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Errorf("status %v, want infeasible", sol.Status)
	}
}

func TestSolveILPUsesIncumbent(t *testing.T) {
	// Trivial: min x0 + x1 with x0 + x1 >= 1. Incumbent [1,1] (obj 2) must
	// be beaten by optimum 1.
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Cons:      []Constraint{{Terms: []Term{{0, 1}, {1, 1}}, Sense: GE, RHS: 1}},
	}
	sol, err := SolveILP(p, ILPOptions{Incumbent: []float64{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-1) > 1e-6 {
		t.Errorf("obj %g, want 1", sol.Objective)
	}
}

func TestSolveILPFractionalLPForcesBranching(t *testing.T) {
	// LP relaxation of: min -(x0+x1+x2) s.t. pairwise sums <= 1 gives
	// x = [0.5 0.5 0.5] (obj -1.5); ILP optimum is one variable = 1.
	p := &Problem{
		NumVars:   3,
		Objective: []float64{-1, -1, -1},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: LE, RHS: 1},
			{Terms: []Term{{1, 1}, {2, 1}}, Sense: LE, RHS: 1},
			{Terms: []Term{{0, 1}, {2, 1}}, Sense: LE, RHS: 1},
		},
	}
	lp, err := SolveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lp.Objective+1.5) > 1e-6 {
		t.Fatalf("LP obj %g, want -1.5 (fractional vertex)", lp.Objective)
	}
	sol, err := SolveILP(p, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective+1) > 1e-6 {
		t.Errorf("ILP obj %g, want -1", sol.Objective)
	}
}

func TestSolveILPEqualityPartition(t *testing.T) {
	// Choose exactly 2 of 4 items minimizing cost.
	p := &Problem{
		NumVars:   4,
		Objective: []float64{5, 1, 3, 2},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}, {1, 1}, {2, 1}, {3, 1}}, Sense: EQ, RHS: 2},
		},
	}
	sol, err := SolveILP(p, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-3) > 1e-6 { // items 1 and 3
		t.Errorf("obj %g, want 3", sol.Objective)
	}
}

func TestFeasibleChecker(t *testing.T) {
	p := &Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: LE, RHS: 1},
		},
	}
	if !feasible(p, []float64{1, 0}) {
		t.Error("[1 0] should be feasible")
	}
	if feasible(p, []float64{1, 1}) {
		t.Error("[1 1] should violate the constraint")
	}
}

func TestSolveILPNodeLimit(t *testing.T) {
	// A tight node limit with no incumbent must report LimitReached. The
	// odd cycle's LP relaxation is fractional at every optimal vertex
	// (x = 0.5 everywhere), so one node can never prove optimality.
	p := &Problem{
		NumVars:   5,
		Objective: []float64{-1, -1, -1, -1, -1},
		Cons: []Constraint{
			{Terms: []Term{{0, 1}, {1, 1}}, Sense: LE, RHS: 1},
			{Terms: []Term{{1, 1}, {2, 1}}, Sense: LE, RHS: 1},
			{Terms: []Term{{2, 1}, {3, 1}}, Sense: LE, RHS: 1},
			{Terms: []Term{{3, 1}, {4, 1}}, Sense: LE, RHS: 1},
			{Terms: []Term{{4, 1}, {0, 1}}, Sense: LE, RHS: 1},
		},
	}
	sol, err := SolveILP(p, ILPOptions{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != LimitReached {
		t.Errorf("status %v, want limit-reached", sol.Status)
	}
	if sol.Nodes != 1 {
		t.Errorf("nodes = %d, want 1", sol.Nodes)
	}
	// With a feasible incumbent the limit returns the incumbent instead,
	// along with a sound bound and gap.
	sol, err = SolveILP(p, ILPOptions{MaxNodes: 1, Incumbent: []float64{1, 0, 1, 0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.X == nil {
		t.Error("expected incumbent solution under node limit")
	}
	if sol.Status != LimitReached {
		t.Errorf("status %v, want limit-reached", sol.Status)
	}
	if sol.BestBound > sol.Objective {
		t.Errorf("best bound %g above incumbent %g", sol.BestBound, sol.Objective)
	}
	if sol.RelGap <= 0 {
		t.Errorf("gap %g, want positive while unproven", sol.RelGap)
	}
}

func TestSolveILPIncumbentLength(t *testing.T) {
	p := &Problem{NumVars: 2, Objective: []float64{1, 1}}
	if _, err := SolveILP(p, ILPOptions{Incumbent: []float64{1}}); err == nil {
		t.Error("expected incumbent length error")
	}
}

func TestSolveILPGapStopsEarly(t *testing.T) {
	// With a huge gap the solver accepts the first incumbent.
	p := &Problem{
		NumVars:   3,
		Objective: []float64{1, 2, 3},
		Cons:      []Constraint{{Terms: []Term{{0, 1}, {1, 1}, {2, 1}}, Sense: GE, RHS: 1}},
	}
	sol, err := SolveILP(p, ILPOptions{Gap: 100, Incumbent: []float64{0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != 3 {
		t.Errorf("gap solve improved past incumbent: %g", sol.Objective)
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", LimitReached: "limit-reached",
	} {
		if s.String() != want {
			t.Errorf("Status(%d) = %q", s, s.String())
		}
	}
	for s, want := range map[Sense]string{LE: "<=", GE: ">=", EQ: "=="} {
		if s.String() != want {
			t.Errorf("Sense %v = %q", s, s.String())
		}
	}
}
