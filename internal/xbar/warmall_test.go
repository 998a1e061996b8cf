package xbar

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"snvmm/internal/sched"
)

// warmCfg is a small geometry so the eager sweeps stay fast under -race.
func warmCfg() Config {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	return cfg
}

func newCal(t *testing.T, cfg Config) *Calibration {
	t.Helper()
	x, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return Calibrate(x)
}

// TestWarmAllMatchesLazy checks that an eagerly warmed calibration holds
// exactly the records a lazy first-touch build would have produced.
func TestWarmAllMatchesLazy(t *testing.T) {
	cfg := warmCfg()
	warm := newCal(t, cfg)
	lazy := newCal(t, cfg)
	if err := warm.WarmAll(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Cells(); i++ {
		poe := cfg.CellAt(i)
		ws, err := warm.Shape(poe)
		if err != nil {
			t.Fatalf("warm shape %v: %v", poe, err)
		}
		ls, err := lazy.Shape(poe)
		if err != nil {
			t.Fatalf("lazy shape %v: %v", poe, err)
		}
		if len(ws) != len(ls) {
			t.Fatalf("poe %v: shape size %d != %d", poe, len(ws), len(ls))
		}
		for k := range ws {
			if ws[k] != ls[k] {
				t.Fatalf("poe %v: shape[%d] %v != %v", poe, k, ws[k], ls[k])
			}
		}
		wb, err := warm.Baseline(poe)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := lazy.Baseline(poe)
		if err != nil {
			t.Fatal(err)
		}
		for k := range wb {
			if wb[k] != lb[k] {
				t.Fatalf("poe %v: baseline[%d] %g != %g", poe, k, wb[k], lb[k])
			}
		}
	}
}

// TestWarmAllConcurrent races two eager sweeps against a fleet of lazy
// readers; under -race this pins the per-PoE singleflight as the only
// synchronization the records need.
func TestWarmAllConcurrent(t *testing.T) {
	cfg := warmCfg()
	cal := newCal(t, cfg)
	var wg sync.WaitGroup
	errs := make(chan error, 2+cfg.Cells())
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- cal.WarmAll(context.Background(), 3)
		}()
	}
	for i := 0; i < cfg.Cells(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := cal.Shape(cfg.CellAt(i))
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// A repeat sweep over fully built records is a no-op and must succeed.
	if err := cal.WarmAll(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
}

// TestWarmAllCancel checks a pre-cancelled context aborts the sweep with the
// context's error and leaves the calibration usable.
func TestWarmAllCancel(t *testing.T) {
	cfg := warmCfg()
	cal := newCal(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cal.WarmAll(ctx, 2); err != context.Canceled {
		t.Fatalf("cancelled WarmAll: got %v, want context.Canceled", err)
	}
	// Lazy use after an aborted warm still works.
	if _, err := cal.Shape(cfg.CellAt(0)); err != nil {
		t.Fatal(err)
	}
}

// TestMonteCarloWorkerIndependence checks the documented contract that the
// result is a pure function of (cfg, poe, samples, vars, seed): worker count
// and scheduling must not leak into the statistics.
func TestMonteCarloWorkerIndependence(t *testing.T) {
	cfg := DefaultConfig()
	one, err := MonteCarloShape(cfg, Cell{4, 3}, 24, 0.05, 0.3, 99, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := MonteCarloShape(cfg, Cell{4, 3}, 24, 0.05, 0.3, 99, 4)
	if err != nil {
		t.Fatal(err)
	}
	if one.Samples != many.Samples || one.ShapeChanged != many.ShapeChanged {
		t.Fatalf("worker count changed counts: %+v vs %+v", one, many)
	}
	if math.Abs(one.MaxVoltDelta-many.MaxVoltDelta) != 0 {
		t.Fatalf("worker count changed MaxVoltDelta: %g vs %g", one.MaxVoltDelta, many.MaxVoltDelta)
	}
}

// TestMonteCarloErrorZeroResult checks the satellite fix: an error return
// carries the zero result, never a half-populated one.
func TestMonteCarloErrorZeroResult(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rows = 1 // invalid geometry: New fails
	res, err := MonteCarloShape(cfg, Cell{0, 0}, 8, 0.05, 0, 1, 2)
	if err == nil {
		t.Fatal("expected error for invalid geometry")
	}
	if res != (MonteCarloResult{}) {
		t.Fatalf("error path returned non-zero result %+v", res)
	}
}

// TestWarmAllParallelHier is the parallel hierarchical ring sweep under
// the race detector: a multi-worker WarmAll over a device whose sketch is
// hierarchical (each worker claiming chunks of PoEs, all sharing the
// device sketch and the pooled per-PoE scratch) must produce exactly the
// records a lazy single-threaded build would. The device is 16x16, the
// smallest geometry on the sketch path; its sketch is primed hierarchical.
// GOMAXPROCS and the host CPU count are pinned to 4 so the worker clamp
// cannot collapse the fan-out on a smaller host.
func TestWarmAllParallelHier(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	defer sched.PinHostCPUs(4)()
	cfg := sizedConfig(16, 16)
	warm := newCal(t, cfg)
	primeSketch(t, warm, true)
	if err := warm.WarmAll(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	lazy := newCal(t, cfg)
	primeSketch(t, lazy, true)
	for _, i := range []int{0, cfg.Cells() / 2, cfg.Cells() - 1} {
		poe := cfg.CellAt(i)
		ws, err := warm.Shape(poe)
		if err != nil {
			t.Fatalf("warm shape %v: %v", poe, err)
		}
		ls, err := lazy.Shape(poe)
		if err != nil {
			t.Fatalf("lazy shape %v: %v", poe, err)
		}
		if len(ws) != len(ls) {
			t.Fatalf("poe %v: shape size %d != %d", poe, len(ws), len(ls))
		}
		for k := range ws {
			if ws[k] != ls[k] {
				t.Fatalf("poe %v: shape[%d] %v != %v", poe, k, ws[k], ls[k])
			}
		}
	}
	// Racing a second parallel sweep against the warm records is a no-op.
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- warm.WarmAll(context.Background(), 2)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
