// Package xbar models the 1T1M memristor crossbar that stores NVMM data and
// carries the sneak-path encryption primitive.
//
// The crossbar is a Rows x Cols grid of MLC-2 memristor cells (two bits per
// cell). In normal operation only the addressed row's access transistors are
// on, eliminating sneak paths. For SPE the peripheral circuitry turns all
// transistors on, a pulse is applied at a point of encryption (PoE), and the
// sneak-path network imposes a voltage across a neighbourhood of cells — the
// polyomino. Cells above the drift threshold change state.
//
// Two model layers cooperate (see DESIGN.md):
//
//   - The continuous layer solves the resistive sneak network with
//     internal/circuit and internal/device, producing voltage maps (Fig. 4),
//     Monte-Carlo shape stability (Section 5) and calibration data.
//   - The quantised layer drives encryption: each pulse maps affected cells'
//     MLC levels through bijective level permutations selected by the
//     pulse class and the cell's *voltage class*. Voltage classes derive
//     from a linearised sneak-path sensitivity model fitted to circuit
//     solves at calibration time; they depend on the data stored in cells
//     outside the polyomino, which is exactly the information still intact
//     when the pulse is undone during decryption — making decryption exact
//     while preserving the data- and hardware-dependence the paper's
//     avalanche experiments measure.
package xbar

import (
	"fmt"
	"math/rand"
	"sync"

	"snvmm/internal/device"
)

// ShapeRule selects how the polyomino (affected-cell set) of a PoE is
// determined.
type ShapeRule int

const (
	// ShapePaper uses the Table 1 footprint: the PoE's column within +/-4
	// rows plus the immediate horizontal neighbours, clipped at the array
	// boundary. This is the shape the paper's ILP and coverage results
	// (Fig. 6, 16 PoEs) are defined on, and the default for encryption.
	ShapePaper ShapeRule = iota
	// ShapeVoltage thresholds the circuit-solved voltage map at the drift
	// threshold, with all cells at their nominal mid state. Used for
	// Fig. 4-style studies and Monte-Carlo shape stability.
	ShapeVoltage
)

// CharMode selects the calibration build path (see DESIGN.md,
// "Locality-truncated characterization").
type CharMode int

const (
	// CharAuto picks the dense per-PoE path for small devices (<= 64
	// cells, the paper's 8x8) and the sketch path above that.
	CharAuto CharMode = iota
	// CharDense forces the legacy per-PoE dense factorization at any size.
	CharDense
	// CharSparse forces the shared-sketch path at any size.
	CharSparse
	// CharHier forces the sketch path with the hierarchical (nested-
	// dissection, block-sparse Green table) backend at any size. Requires
	// ShapePaper: the truncation sparsity is derived from the analytic
	// polyomino reach. Under CharAuto and CharSparse the hierarchical
	// backend is selected automatically above ~1024 unknowns (24x24+).
	CharHier
)

// Config describes a crossbar instance.
type Config struct {
	Rows, Cols int

	Device device.Params // nominal cell parameters

	// VarFrac is the per-cell parametric variation fraction applied at
	// fabrication (Seed-deterministic). Zero disables variation.
	VarFrac float64
	Seed    int64

	// Wire and access-device resistances (ohms). Row wires are the high-
	// resistance direction in this layout.
	RWireRow float64 // per segment along a row line
	RWireCol float64 // per segment along a column line
	RAccess  float64 // transistor on-resistance in series with each cell
	RKeeper  float64 // keeper resistance holding unselected lines at ground

	// VDrive is the half-rail drive: during a pulse the selected row sits
	// at +VDrive and the selected column at -VDrive, so the PoE cell sees
	// ~2*VDrive and polyomino cells ~VDrive.
	VDrive float64

	Shape ShapeRule

	// VertReach/HorizReach control the ShapePaper footprint.
	VertReach  int
	HorizReach int

	// Characterization selects the calibration build path. The default
	// (CharAuto) preserves the paper's 8x8 golden vectors bit-for-bit via
	// the dense path while larger devices take the sketch path.
	Characterization CharMode

	// TruncationTol bounds the sketch path's adaptive sensitivity sweep:
	// the Chebyshev-ring sweep around each PoE stops once a completed ring
	// beyond the polyomino has max |dV/dx| below this (volts per unit cell
	// state). Zero selects the bit-exactness default, half the 2^-40
	// fixed-point weight quantum — a dropped cell's weight would have
	// quantized to zero anyway, so deviations are unchanged bit for bit.
	// The dense path always sweeps the full array and ignores this.
	TruncationTol float64

	// TruncationRadius, when positive, caps the swept Chebyshev radius
	// regardless of tolerance. Zero means adaptive only (up to the whole
	// array). Like TruncationTol it only affects the sketch path.
	TruncationRadius int
}

// DefaultConfig returns the 8x8 crossbar used throughout the paper.
func DefaultConfig() Config {
	return Config{
		Rows:       8,
		Cols:       8,
		Device:     device.DefaultParams(),
		VarFrac:    0.0,
		Seed:       1,
		RWireRow:   350,
		RWireCol:   25,
		RAccess:    250,
		RKeeper:    50,
		VDrive:     0.9,
		Shape:      ShapePaper,
		VertReach:  4,
		HorizReach: 1,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Rows < 2 || c.Cols < 2 {
		return fmt.Errorf("xbar: need at least 2x2, got %dx%d", c.Rows, c.Cols)
	}
	if err := c.Device.Validate(); err != nil {
		return err
	}
	if c.RWireRow < 0 || c.RWireCol < 0 || c.RAccess < 0 || c.RKeeper <= 0 {
		return fmt.Errorf("xbar: invalid resistances")
	}
	if c.VDrive <= 0 {
		return fmt.Errorf("xbar: VDrive must be positive, got %g", c.VDrive)
	}
	if c.Shape == ShapePaper && (c.VertReach < 0 || c.HorizReach < 0) {
		return fmt.Errorf("xbar: negative reach")
	}
	switch c.Characterization {
	case CharAuto, CharDense, CharSparse:
	case CharHier:
		if c.Shape != ShapePaper {
			return fmt.Errorf("xbar: CharHier needs ShapePaper (the truncation sparsity is derived from the analytic polyomino reach)")
		}
	default:
		return fmt.Errorf("xbar: unknown characterization mode %d", c.Characterization)
	}
	if c.TruncationTol < 0 {
		return fmt.Errorf("xbar: negative truncation tolerance %g", c.TruncationTol)
	}
	if c.TruncationRadius < 0 {
		return fmt.Errorf("xbar: negative truncation radius %d", c.TruncationRadius)
	}
	return nil
}

// Cells returns Rows*Cols.
func (c Config) Cells() int { return c.Rows * c.Cols }

// Cell identifies one crossbar cell.
type Cell struct{ Row, Col int }

// Index linearizes the cell row-major.
func (c Config) Index(cell Cell) int { return cell.Row*c.Cols + cell.Col }

// CellAt is the inverse of Index.
func (c Config) CellAt(i int) Cell { return Cell{Row: i / c.Cols, Col: i % c.Cols} }

// InBounds reports whether the cell lies inside the array.
func (c Config) InBounds(cell Cell) bool {
	return cell.Row >= 0 && cell.Row < c.Rows && cell.Col >= 0 && cell.Col < c.Cols
}

// PaperShape returns the Table 1 polyomino footprint for a PoE, clipped at
// the boundary: the PoE's column within +/-VertReach rows plus +/-HorizReach
// horizontal neighbours in the PoE's row.
func (c Config) PaperShape(poe Cell) []Cell {
	var out []Cell
	for dr := -c.VertReach; dr <= c.VertReach; dr++ {
		cell := Cell{Row: poe.Row + dr, Col: poe.Col}
		if c.InBounds(cell) {
			out = append(out, cell)
		}
	}
	for dc := -c.HorizReach; dc <= c.HorizReach; dc++ {
		if dc == 0 {
			continue
		}
		cell := Cell{Row: poe.Row, Col: poe.Col + dc}
		if c.InBounds(cell) {
			out = append(out, cell)
		}
	}
	return out
}

// cellParams materializes the per-cell device parameters, applying the
// fabrication variation deterministically from the seed. Without variation
// every cell is the nominal device whatever the seed, so the slice is
// shared read-only between all crossbars of one (cell count, device) — a
// memory of thousands of crossbars then holds one copy instead of one per
// crossbar. Callers must not write the result.
func (c Config) cellParams() []device.Params {
	if c.VarFrac > 0 {
		return c.cellParamsInto(nil)
	}
	key := nominalKey{cells: c.Cells(), dev: c.Device}
	nominalParams.mu.Lock()
	defer nominalParams.mu.Unlock()
	ps, ok := nominalParams.m[key]
	if !ok {
		ps = c.cellParamsInto(nil)
		nominalParams.m[key] = ps
	}
	return ps
}

// nominalKey identifies one shared unvaried parameter slice.
type nominalKey struct {
	cells int
	dev   device.Params
}

// nominalParams holds the shared unvaried parameter slices (see
// cellParams), like calCache does for calibrations.
var nominalParams = struct {
	mu sync.Mutex
	m  map[nominalKey][]device.Params
}{m: make(map[nominalKey][]device.Params)}

// cellParamsInto is cellParams writing into dst when it has the capacity —
// the allocation-free form for sweeps that rematerialize parameters per
// sample (Monte Carlo).
func (c Config) cellParamsInto(dst []device.Params) []device.Params {
	if cap(dst) < c.Cells() {
		dst = make([]device.Params, c.Cells())
	}
	dst = dst[:c.Cells()]
	rng := rand.New(rand.NewSource(c.Seed))
	for i := range dst {
		if c.VarFrac > 0 {
			dst[i] = c.Device.Vary(rng, c.VarFrac)
		} else {
			dst[i] = c.Device
		}
	}
	return dst
}
