package poe

import (
	"testing"

	"snvmm/internal/xbar"
)

// The placement benchmarks pin the solver's two regimes: the 8x8 default
// config solves at the root (pure LP + canonicalization cost), and the
// 16x16 S=0 instance is a real branch-and-bound search. The 16x16 case caps
// MaxNodes so one iteration is a fixed amount of search work rather than a
// run-to-optimality whose length depends on incumbent luck.
func benchSolve(b *testing.B, rows, cols, s, maxNodes int) {
	cfg := xbar.DefaultConfig()
	cfg.Rows, cfg.Cols = rows, cols
	spec := Spec{Cfg: cfg, S: s, MaxNodes: maxNodes}
	b.ReportAllocs()
	var nodes int64
	for i := 0; i < b.N; i++ {
		res, err := Solve(spec)
		if err != nil {
			b.Fatal(err)
		}
		nodes = res.Nodes
	}
	b.ReportMetric(float64(nodes), "nodes")
}

func BenchmarkPlacement8x8(b *testing.B) { benchSolve(b, 8, 8, 0, 0) }

func BenchmarkPlacement16x16(b *testing.B) { benchSolve(b, 16, 16, 0, 40) }
