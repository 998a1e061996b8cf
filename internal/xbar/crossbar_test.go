package xbar

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"snvmm/internal/device"
)

func newTestXbar(t *testing.T) *Crossbar {
	t.Helper()
	xb, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return xb
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Rows = 1 },
		func(c *Config) { c.Cols = 0 },
		func(c *Config) { c.Device.ROn = -1 },
		func(c *Config) { c.RKeeper = 0 },
		func(c *Config) { c.VDrive = 0 },
		func(c *Config) { c.VertReach = -1 },
	}
	for i, mut := range bad {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestIndexRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	for i := 0; i < cfg.Cells(); i++ {
		if got := cfg.Index(cfg.CellAt(i)); got != i {
			t.Errorf("Index(CellAt(%d)) = %d", i, got)
		}
	}
}

func TestPaperShapeInterior(t *testing.T) {
	cfg := DefaultConfig()
	// Interior PoE on a big enough array: 9 vertical + 2 horizontal = 11.
	cfg.Rows, cfg.Cols = 16, 16
	shape := cfg.PaperShape(Cell{8, 8})
	if len(shape) != 11 {
		t.Errorf("interior shape size %d, want 11", len(shape))
	}
	// Must contain the PoE itself.
	found := false
	for _, c := range shape {
		if c == (Cell{8, 8}) {
			found = true
		}
		if !cfg.InBounds(c) {
			t.Errorf("shape cell %+v out of bounds", c)
		}
	}
	if !found {
		t.Error("shape does not contain the PoE")
	}
}

func TestPaperShapeClipping(t *testing.T) {
	cfg := DefaultConfig() // 8x8, reach 4/1
	// Corner PoE (0,0): vertical rows 0..4 = 5 cells, horizontal col 1 = 1.
	if got := len(cfg.PaperShape(Cell{0, 0})); got != 6 {
		t.Errorf("corner shape size %d, want 6", got)
	}
	// Center-ish PoE (4,4): vertical rows 0..7 (clipped to 8), horizontal 2.
	if got := len(cfg.PaperShape(Cell{4, 4})); got != 8+2 {
		t.Errorf("center shape size %d, want 10", got)
	}
}

func TestWriteReadBlockRoundTrip(t *testing.T) {
	xb := newTestXbar(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		data := make([]byte, xb.BlockBytes())
		rng.Read(data)
		if err := xb.WriteBlock(data); err != nil {
			t.Fatal(err)
		}
		if got := xb.ReadBlock(); !bytes.Equal(got, data) {
			t.Fatalf("round trip failed: wrote %x read %x", data, got)
		}
	}
}

func TestWriteBlockWrongSize(t *testing.T) {
	xb := newTestXbar(t)
	if err := xb.WriteBlock(make([]byte, 3)); err == nil {
		t.Error("expected size error")
	}
}

func TestSetLevelsValidation(t *testing.T) {
	xb := newTestXbar(t)
	if err := xb.SetLevels(make([]int, 5)); err == nil {
		t.Error("expected length error")
	}
	bad := make([]int, xb.Cfg.Cells())
	bad[7] = device.Levels
	if err := xb.SetLevels(bad); err == nil {
		t.Error("expected range error")
	}
}

func TestWearAccounting(t *testing.T) {
	xb := newTestXbar(t)
	data := make([]byte, xb.BlockBytes())
	if err := xb.WriteBlock(data); err != nil {
		t.Fatal(err)
	}
	for _, w := range xb.Wear() {
		if w != 1 {
			t.Fatalf("wear = %v, want all 1 after one write", xb.Wear())
		}
	}
	cal := Calibrate(xb)
	if err := xb.ApplyPulse(cal, Cell{3, 3}, 0); err != nil {
		t.Fatal(err)
	}
	shape, _ := cal.Shape(Cell{3, 3})
	wear := xb.Wear()
	touched := 0
	for _, w := range wear {
		if w == 2 {
			touched++
		}
	}
	if touched != len(shape) {
		t.Errorf("%d cells gained wear, want %d (shape size)", touched, len(shape))
	}
}

func TestSolveVoltagesPoEDominates(t *testing.T) {
	xb := newTestXbar(t)
	poe := Cell{4, 3}
	dv, err := xb.SolveVoltages(poe, xb.midR())
	if err != nil {
		t.Fatal(err)
	}
	poeV := dv[xb.Cfg.Index(poe)]
	if poeV < xb.Cfg.VDrive {
		t.Errorf("PoE voltage %g, want > VDrive %g", poeV, xb.Cfg.VDrive)
	}
	// The PoE cell must see the largest |voltage| in the array.
	for i, v := range dv {
		if i == xb.Cfg.Index(poe) {
			continue
		}
		if abs(v) > abs(poeV) {
			t.Errorf("cell %d voltage %g exceeds PoE %g", i, v, poeV)
		}
	}
}

func TestSolveVoltagesCrossPattern(t *testing.T) {
	// Cells sharing the PoE's row or column see elevated voltage; cells in
	// neither see little.
	xb := newTestXbar(t)
	poe := Cell{4, 3}
	dv, err := xb.SolveVoltages(poe, xb.midR())
	if err != nil {
		t.Fatal(err)
	}
	cfg := xb.Cfg
	var minCross, maxOff float64 = 1e9, 0
	for i, v := range dv {
		c := cfg.CellAt(i)
		if c == poe {
			continue
		}
		onCross := c.Row == poe.Row || c.Col == poe.Col
		if onCross && abs(v) < minCross {
			minCross = abs(v)
		}
		if !onCross && abs(v) > maxOff {
			maxOff = abs(v)
		}
	}
	if minCross <= maxOff {
		t.Errorf("cross cells (min %g) should exceed off-cross cells (max %g)", minCross, maxOff)
	}
}

func TestSolveVoltagesErrors(t *testing.T) {
	xb := newTestXbar(t)
	if _, err := xb.SolveVoltages(Cell{9, 0}, nil); err == nil {
		t.Error("expected out-of-bounds error")
	}
	if _, err := xb.SolveVoltages(Cell{0, 0}, make([]float64, 5)); err == nil {
		t.Error("expected cellR length error")
	}
}

func TestVoltageMapNonNegative(t *testing.T) {
	xb := newTestXbar(t)
	m, err := xb.VoltageMap(Cell{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m {
		if v < 0 {
			t.Errorf("|dv| negative at %d: %g", i, v)
		}
	}
}

func TestShapeVoltageRule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shape = ShapeVoltage
	xb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	shape, err := xb.Shape(Cell{4, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(shape) == 0 {
		t.Fatal("voltage-rule polyomino is empty")
	}
	// Must include the PoE.
	found := false
	for _, c := range shape {
		if c == (Cell{4, 3}) {
			found = true
		}
	}
	if !found {
		t.Error("voltage-rule polyomino misses the PoE")
	}
}

func TestShapeDeterminism(t *testing.T) {
	xb1 := newTestXbar(t)
	xb2 := newTestXbar(t)
	for _, poe := range []Cell{{0, 0}, {4, 3}, {7, 7}} {
		s1, err := xb1.Shape(poe)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := xb2.Shape(poe)
		if err != nil {
			t.Fatal(err)
		}
		if shapeKey(xb1.Cfg, s1) != shapeKey(xb2.Cfg, s2) {
			t.Errorf("shape for %+v not deterministic", poe)
		}
	}
}

func TestTransientPulsePhysics(t *testing.T) {
	xb := newTestXbar(t)
	levels := make([]int, xb.Cfg.Cells())
	for i := range levels {
		levels[i] = 1 // mid-low state leaves drift headroom
	}
	if err := xb.SetLevels(levels); err != nil {
		t.Fatal(err)
	}
	poe := Cell{Row: 4, Col: 3}
	res, err := xb.TransientPulse(poe, 1.8, 50e-9, 40)
	if err != nil {
		t.Fatal(err)
	}
	cfg := xb.Cfg
	poeIdx := cfg.Index(poe)
	if res.Drift[poeIdx] <= 0 {
		t.Errorf("PoE did not drift: %g", res.Drift[poeIdx])
	}
	// Cells sharing the PoE row/column (above threshold) drift; others do
	// not.
	for i := range res.Drift {
		c := cfg.CellAt(i)
		onCross := c.Row == poe.Row || c.Col == poe.Col
		if onCross && res.MaxVoltage[i] >= xb.params[i].VtOff && res.Drift[i] == 0 {
			t.Errorf("cross cell %+v saw %.2f V but did not drift", c, res.MaxVoltage[i])
		}
		if !onCross && res.Drift[i] != 0 {
			t.Errorf("off-cross cell %+v drifted %g", c, res.Drift[i])
		}
	}
	// Stored levels are untouched.
	for i, l := range xb.Levels() {
		if l != 1 {
			t.Fatalf("TransientPulse mutated stored level at %d: %d", i, l)
		}
	}
	// PoE drift must exceed any neighbour drift (highest voltage).
	for i, d := range res.Drift {
		if i != poeIdx && d > res.Drift[poeIdx] {
			t.Errorf("cell %d drift %g exceeds PoE %g", i, d, res.Drift[poeIdx])
		}
	}
}

func TestTransientPulseValidation(t *testing.T) {
	xb := newTestXbar(t)
	if _, err := xb.TransientPulse(Cell{Row: 9, Col: 0}, 1, 1e-9, 10); err == nil {
		t.Error("out-of-bounds accepted")
	}
	if _, err := xb.TransientPulse(Cell{Row: 0, Col: 0}, 1, 0, 10); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := xb.TransientPulse(Cell{Row: 0, Col: 0}, 1, 1e-9, 0); err == nil {
		t.Error("zero steps accepted")
	}
}

func TestTransientSubThresholdNoDrift(t *testing.T) {
	xb := newTestXbar(t)
	// A 1.0 V total pulse puts ~0.5 V across cross cells: below Vt, only
	// the PoE (at ~0.95 V) may drift.
	res, err := xb.TransientPulse(Cell{Row: 2, Col: 2}, 1.0, 50e-9, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range res.Drift {
		if i == xb.Cfg.Index(Cell{Row: 2, Col: 2}) {
			continue
		}
		if d != 0 {
			t.Errorf("sub-threshold cell %d drifted %g (saw %.2f V)", i, d, res.MaxVoltage[i])
		}
	}
}

// TestBlockIOWordWide checks the word-wide block I/O at 5x5, 6x6 and 12x12,
// whose last packed word is partial (and at 5x5 the last data byte too):
// ReadBlock returns what WriteBlock wrote, and after every WriteBlock,
// ApplyPulse, Rewind and SetLevels the levels equal the per-cell model and
// the packed words are its reference packing (checkTracker), so the padding
// bits past the last cell stay zero.
func TestBlockIOWordWide(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, size := range []int{5, 6, 12} {
		x, err := New(sizedConfig(size, size))
		if err != nil {
			t.Fatal(err)
		}
		cal := Calibrate(x)
		cells := x.Cfg.Cells()
		m := make(cellModel, cells)
		var snap Snapshot
		for round := 0; round < 12; round++ {
			data := make([]byte, x.BlockBytes())
			rng.Read(data)
			writeBlock(t, x, m, data)
			checkTracker(t, x, cal, m)
			if got := x.ReadBlock(); !bytes.Equal(got, data) {
				t.Fatalf("%dx%d round %d: ReadBlock %x after WriteBlock %x", size, size, round, got, data)
			}
			x.Save(&snap)
			saved := slices.Clone(m)
			for k := 0; k < 4; k++ {
				applyPulse(t, x, cal, m, x.Cfg.CellAt(rng.Intn(cells)), rng.Intn(device.NumPulses))
				checkTracker(t, x, cal, m)
			}
			x.Rewind(&snap)
			copy(m, saved)
			checkTracker(t, x, cal, m)
			if got := x.ReadBlock(); !bytes.Equal(got, data) {
				t.Fatalf("%dx%d round %d: ReadBlock %x after Rewind, want %x", size, size, round, got, data)
			}
			setLevels(t, x, m, randomLevels(rng, cells))
			checkTracker(t, x, cal, m)
		}
	}
}
