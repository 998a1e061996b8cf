// Package ilp is a small exact solver for the 0/1 integer linear programs
// the PoE-placement formulation of Table 1 produces — the reproduction's
// substitute for the FICO Xpress solver the paper used. It contains a dense
// two-phase primal simplex with implicit variable upper bounds for the LP
// relaxations (see Workspace) and a branch-and-bound driver: a best-first
// frontier with DFS dives for early incumbents (see SolveILP /
// SolveILPContext).
package ilp

import (
	"errors"
	"fmt"
)

// Sense is the direction of a linear constraint.
type Sense int

const (
	LE  Sense = iota // sum <= rhs
	GE               // sum >= rhs
	EQ               // sum == rhs
	RNG              // lb <= sum <= rhs (two-sided row, one slack)
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	case RNG:
		return "in"
	}
	return "?"
}

// Term is one coefficient of a constraint row.
type Term struct {
	Var  int
	Coef float64
}

// Constraint is sum(Coef_j * x_j) Sense RHS. A RNG row additionally bounds
// the sum from below by LB (LB is ignored for the other senses): it costs
// one tableau row with a bounded slack, half of what the equivalent GE+LE
// pair does — the covering formulation's per-cell 1 <= cover <= MaxCover
// windows are the intended use.
type Constraint struct {
	Terms []Term
	Sense Sense
	RHS   float64
	LB    float64
}

// Problem is a linear program over variables x_0..x_{n-1} with bounds
// [0, UB_j]. Objective is always minimized; negate coefficients to maximize.
type Problem struct {
	NumVars   int
	Objective []float64 // len NumVars
	Cons      []Constraint
	// UB is the per-variable upper bound; nil means all 1 (binary
	// relaxation). Entries of +Inf mean unbounded above.
	UB []float64
}

// Status describes the outcome of a solve.
type Status int

const (
	Optimal Status = iota
	Infeasible
	Unbounded
	LimitReached
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case LimitReached:
		return "limit-reached"
	}
	return "?"
}

// Solution holds a solve result. For ILP solves the search statistics are
// always populated, and X carries the best-known incumbent whenever one
// exists — including on LimitReached, where Objective is the incumbent's
// value, BestBound the best proven lower bound over the unexplored
// frontier, and RelGap their relative distance.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64

	// Search statistics (branch and bound only; zero for plain LP solves).
	Nodes     int64   // branch-and-bound nodes explored, canonicalization probes included
	BestBound float64 // best proven lower bound on the optimum
	RelGap    float64 // (Objective-BestBound)/max(1,|Objective|); 0 when proven

	IncumbentUpdates int64 // incumbent improvements accepted
}

const eps = 1e-9

// ErrBadProblem is returned for malformed inputs.
var ErrBadProblem = errors.New("ilp: malformed problem")

func (p *Problem) validate() error {
	if p.NumVars <= 0 {
		return fmt.Errorf("%w: NumVars=%d", ErrBadProblem, p.NumVars)
	}
	if len(p.Objective) != p.NumVars {
		return fmt.Errorf("%w: objective length %d != %d", ErrBadProblem, len(p.Objective), p.NumVars)
	}
	if p.UB != nil && len(p.UB) != p.NumVars {
		return fmt.Errorf("%w: UB length %d != %d", ErrBadProblem, len(p.UB), p.NumVars)
	}
	for i, c := range p.Cons {
		for _, t := range c.Terms {
			if t.Var < 0 || t.Var >= p.NumVars {
				return fmt.Errorf("%w: constraint %d references var %d", ErrBadProblem, i, t.Var)
			}
		}
		if c.Sense == RNG && !(c.LB <= c.RHS) {
			return fmt.Errorf("%w: constraint %d range [%v, %v]", ErrBadProblem, i, c.LB, c.RHS)
		}
	}
	return nil
}

func (p *Problem) ub(j int) float64 {
	if p.UB == nil {
		return 1
	}
	return p.UB[j]
}

// SolveLP solves the LP relaxation with bounds [0, UB] by two-phase primal
// simplex with implicit upper bounds. It is a convenience wrapper that
// compiles a fresh Workspace per call; branch and bound reuses workspaces
// across nodes instead.
func SolveLP(p *Problem) (Solution, error) {
	w, err := NewWorkspace(p)
	if err != nil {
		return Solution{}, err
	}
	sol := w.SolveRelax()
	if sol.Status == Optimal {
		sol.X = append([]float64(nil), sol.X...) // detach from workspace buffer
	}
	return sol, nil
}
