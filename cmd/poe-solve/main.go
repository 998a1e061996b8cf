// Command poe-solve runs the Table 1 ILP: find a minimum set of points of
// encryption whose polyominoes cover every cell of a crossbar with bounded
// overlap.
//
// Usage:
//
//	poe-solve -rows 8 -cols 8 -s 56
//	poe-solve -rows 16 -cols 16 -s 0 -maxcover 2 -timeout 30s
//	poe-solve -rows 16 -cols 16 -json
//
// The exit status is non-zero only when no feasible placement exists (or the
// arguments are invalid). Hitting the node limit or the timeout with a
// feasible-but-unproven placement still exits 0; the output marks the
// placement as unproven and reports the remaining optimality gap.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"snvmm/internal/poe"
	"snvmm/internal/telemetry"
	"snvmm/internal/xbar"
)

var (
	rowsFlag    = flag.Int("rows", 8, "crossbar rows")
	colsFlag    = flag.Int("cols", 8, "crossbar columns")
	sFlag       = flag.Int("s", 56, "security slack S (Table 1)")
	coverFlag   = flag.Int("maxcover", 2, "per-cell overlap cap")
	vertFlag    = flag.Int("vert", 4, "polyomino vertical reach")
	horizFlag   = flag.Int("horiz", 1, "polyomino horizontal reach")
	nodesFlag   = flag.Int("maxnodes", 200000, "branch-and-bound node limit")
	timeoutFlag = flag.Duration("timeout", 0, "wall-clock limit (0 = none); best placement so far is printed on expiry")
	jsonFlag    = flag.Bool("json", false, "emit the result as JSON on stdout")
)

// jsonResult is the -json output schema.
type jsonResult struct {
	Rows      int         `json:"rows"`
	Cols      int         `json:"cols"`
	S         int         `json:"s"`
	MaxCover  int         `json:"max_cover"`
	PoEs      []xbar.Cell `json:"poes"`
	Optimal   bool        `json:"optimal"`
	Nodes     int64       `json:"nodes"`
	BestBound float64     `json:"best_bound"`
	Gap       float64     `json:"gap"`
	WallMS    float64     `json:"wall_ms"`
	Stats     poe.Stats   `json:"coverage"`

	// Incumbent improvements, plus the full registry snapshot of the run
	// (ilp.* instruments).
	IncumbentUpdates int64               `json:"incumbent_updates"`
	Telemetry        *telemetry.Snapshot `json:"telemetry,omitempty"`
}

func main() {
	flag.Parse()
	cfg := xbar.DefaultConfig()
	cfg.Rows, cfg.Cols = *rowsFlag, *colsFlag
	cfg.VertReach, cfg.HorizReach = *vertFlag, *horizFlag

	ctx := context.Background()
	if *timeoutFlag > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeoutFlag)
		defer cancel()
	}
	var reg *telemetry.Registry
	if *jsonFlag {
		reg = telemetry.New()
	}
	start := time.Now()
	res, err := poe.SolveContext(ctx, poe.Spec{
		Cfg: cfg, S: *sFlag, MaxCover: *coverFlag,
		MaxNodes:  *nodesFlag,
		Telemetry: reg,
	})
	wall := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	st := poe.StatsOf(cfg, cfg.PaperShape, res.PoEs)

	if *jsonFlag {
		snap := reg.Snapshot()
		out := jsonResult{
			Rows: cfg.Rows, Cols: cfg.Cols, S: *sFlag, MaxCover: *coverFlag,
			PoEs: res.PoEs, Optimal: res.Optimal,
			Nodes: res.Nodes, BestBound: res.BestBound, Gap: res.Gap,
			WallMS:           float64(wall.Microseconds()) / 1000,
			Stats:            st,
			IncumbentUpdates: res.IncumbentUpdates,
			Telemetry:        &snap,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("%dx%d crossbar, S=%d, max cover %d\n", cfg.Rows, cfg.Cols, *sFlag, *coverFlag)
	if res.Optimal {
		fmt.Printf("PoEs: %d (proven optimal)\n", len(res.PoEs))
	} else {
		fmt.Printf("PoEs: %d (UNPROVEN: best bound %.2f, gap %.1f%%)\n",
			len(res.PoEs), res.BestBound, res.Gap*100)
	}
	fmt.Printf("nodes: %d, wall time: %v\n", res.Nodes, wall.Round(time.Millisecond))
	fmt.Printf("coverage: %d single, %d overlapped, %d uncovered, total %d\n",
		st.Single, st.Overlapped, st.Uncovered, st.TotalCover)
	grid := make([][]byte, cfg.Rows)
	for r := range grid {
		grid[r] = make([]byte, cfg.Cols)
		for c := range grid[r] {
			grid[r][c] = '.'
		}
	}
	for _, p := range res.PoEs {
		grid[p.Row][p.Col] = 'P'
	}
	fmt.Println("placement (P = PoE):")
	for _, row := range grid {
		fmt.Println(string(row))
	}
}
