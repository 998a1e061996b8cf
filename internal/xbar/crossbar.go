package xbar

import (
	"fmt"

	"snvmm/internal/circuit"
	"snvmm/internal/device"
)

// Crossbar is one 1T1M array instance with quantized MLC state.
type Crossbar struct {
	Cfg    Config
	params []device.Params // per-cell (fabrication-varied) parameters; read-only, shared when unvaried
	levels []int           // per-cell MLC level, row-major
	wear   []uint64        // per-cell pulse count, for endurance studies
	trk    *devTracker     // incremental deviation state for the pulse path
	trace  *traceState     // optional per-pulse side-channel sink (nil = off)
}

// New builds a crossbar with all cells at level 0.
func New(cfg Config) (*Crossbar, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Cells()
	return &Crossbar{
		Cfg:    cfg,
		params: cfg.cellParams(),
		levels: make([]int, n),
		wear:   make([]uint64, n),
	}, nil
}

// Levels returns a copy of the per-cell MLC levels.
func (x *Crossbar) Levels() []int {
	out := make([]int, len(x.levels))
	copy(out, x.levels)
	return out
}

// SetLevels overwrites the cell state. The slice length must equal Cells().
func (x *Crossbar) SetLevels(levels []int) error {
	if len(levels) != len(x.levels) {
		return fmt.Errorf("xbar: SetLevels length %d != %d", len(levels), len(x.levels))
	}
	for i, l := range levels {
		if l < 0 || l >= device.Levels {
			return fmt.Errorf("xbar: level %d at cell %d out of range", l, i)
		}
	}
	copy(x.levels, levels)
	x.invalidateTracker()
	return nil
}

// Wear returns a copy of the per-cell pulse counts.
func (x *Crossbar) Wear() []uint64 {
	out := make([]uint64, len(x.wear))
	copy(out, x.wear)
	return out
}

// BlockBytes is the data capacity of one crossbar in bytes: each cell stores
// 2 bits, row-major, least-significant pair first within a byte.
func (x *Crossbar) BlockBytes() int { return len(x.levels) / 4 }

// WriteBlock programs plaintext data into the array (the paper's write
// phase: a normal MLC write with sneak paths suppressed). data must be
// exactly BlockBytes long.
func (x *Crossbar) WriteBlock(data []byte) error {
	if len(data) != x.BlockBytes() {
		return fmt.Errorf("xbar: WriteBlock needs %d bytes, got %d", x.BlockBytes(), len(data))
	}
	for i := range x.levels {
		bits := data[i/4] >> uint((i%4)*2) & 0x3
		x.levels[i] = device.BitsLevel(bits)
		x.wear[i]++
	}
	x.invalidateTracker()
	return nil
}

// ReadBlock senses the array (transistor-gated, sneak-free) and returns the
// stored bits.
func (x *Crossbar) ReadBlock() []byte {
	return x.AppendBlock(make([]byte, 0, x.BlockBytes()))
}

// AppendBlock senses the array like ReadBlock and appends the BlockBytes
// stored bytes to dst, so a caller assembling several crossbars into one
// buffer reads them out without a buffer per crossbar.
func (x *Crossbar) AppendBlock(dst []byte) []byte {
	for j := 0; j < x.BlockBytes(); j++ {
		var b byte
		for k, l := range x.levels[4*j : 4*j+4] {
			b |= device.LevelBits(l) << uint(2*k)
		}
		dst = append(dst, b)
	}
	return dst
}

// resistance returns the present resistance of cell i at the given level
// using that cell's fabrication-varied parameters.
func (x *Crossbar) resistance(i, level int) float64 {
	p := x.params[i]
	return p.ROn + (p.ROff-p.ROn)*device.LevelCenter(level)
}

// midResistance returns cell i's resistance at the mid state x = 0.5, the
// calibration reference point.
func (x *Crossbar) midResistance(i int) float64 {
	p := x.params[i]
	return p.ROn + (p.ROff-p.ROn)*0.5
}

// Node numbering for the sneak network:
//
//	0                      ground
//	1 + r*Cols + j         row-line junction of row r at column j
//	1 + R*C + c*Rows + i   column-line junction of column c at row i
//	1 + 2*R*C + r          row terminal r
//	1 + 2*R*C + Rows + c   column terminal c
func (x *Crossbar) rowNode(r, j int) int { return 1 + r*x.Cfg.Cols + j }
func (x *Crossbar) colNode(i, c int) int { return 1 + x.Cfg.Rows*x.Cfg.Cols + c*x.Cfg.Rows + i }
func (x *Crossbar) rowTerm(r int) int    { return 1 + 2*x.Cfg.Rows*x.Cfg.Cols + r }
func (x *Crossbar) colTerm(c int) int {
	return 1 + 2*x.Cfg.Rows*x.Cfg.Cols + x.Cfg.Rows + c
}
func (x *Crossbar) totalNodes() int { return 1 + 2*x.Cfg.Rows*x.Cfg.Cols + x.Cfg.Rows + x.Cfg.Cols }

// SolveVoltages computes the voltage across every cell when a pulse of
// amplitude +VDrive/-VDrive is applied at the PoE's row/column with all
// transistors on (sneak mode) and every other line held at ground through
// its keeper. cellR gives the per-cell resistance to use (len Cells());
// pass nil to use the current quantized state.
//
// The returned slice has one entry per cell: V(row junction) - V(column
// junction), the drop across memristor+access device.
func (x *Crossbar) SolveVoltages(poe Cell, cellR []float64) ([]float64, error) {
	nw, _, err := x.buildNetwork(poe, cellR, x.Cfg.VDrive)
	if err != nil {
		return nil, err
	}
	sol, err := nw.Solve()
	if err != nil {
		return nil, err
	}
	out := make([]float64, x.Cfg.Cells())
	x.cellDropsInto(out, sol)
	return out, nil
}

// cellDropsInto extracts the per-cell voltage drop from a network solution
// into dst (len Cells()).
func (x *Crossbar) cellDropsInto(dst []float64, sol *circuit.Solution) {
	cfg := x.Cfg
	for r := 0; r < cfg.Rows; r++ {
		for j := 0; j < cfg.Cols; j++ {
			dst[cfg.Index(Cell{Row: r, Col: j})] = sol.V[x.rowNode(r, j)] - sol.V[x.colNode(r, j)]
		}
	}
}

// buildNetwork assembles the sneak-mode network for a pulse at the PoE with
// the given drive amplitude (row at +vDrive, column at -vDrive). The drive
// is an explicit parameter — not read from Cfg — so transient sweeps can
// explore other operating points without mutating shared configuration. It
// returns the network and the edge index of cell 0 (cells occupy
// consecutive edge indices in row-major order), which the calibration uses
// for fast single-resistor perturbation re-solves and the transient engine
// for in-place per-step resistance updates.
func (x *Crossbar) buildNetwork(poe Cell, cellR []float64, vDrive float64) (*circuit.Network, int, error) {
	cfg := x.Cfg
	if !cfg.InBounds(poe) {
		return nil, 0, fmt.Errorf("xbar: PoE %+v out of bounds", poe)
	}
	nw, cellEdgeStart, err := x.assembleSneakCore(cellR)
	if err != nil {
		return nil, 0, err
	}
	// Drives and keepers.
	for r := 0; r < cfg.Rows; r++ {
		if r == poe.Row {
			if err := nw.FixVoltage(x.rowTerm(r), vDrive); err != nil {
				return nil, 0, err
			}
		} else if err := nw.AddResistor(x.rowTerm(r), circuit.Ground, cfg.RKeeper); err != nil {
			return nil, 0, err
		}
	}
	for c := 0; c < cfg.Cols; c++ {
		if c == poe.Col {
			if err := nw.FixVoltage(x.colTerm(c), -vDrive); err != nil {
				return nil, 0, err
			}
		} else if err := nw.AddResistor(x.colTerm(c), circuit.Ground, cfg.RKeeper); err != nil {
			return nil, 0, err
		}
	}
	return nw, cellEdgeStart, nil
}

// buildFloatingNetwork assembles the sneak network with every terminal held
// through its keeper and nothing driven — the shared operating structure the
// probe-sketch characterization factors once per device. Per-PoE pulse
// drives are applied afterwards as rank-2 boundary constraints
// (circuit.ProbeSketch.Pin), which is what lets one factorization serve
// every PoE.
func (x *Crossbar) buildFloatingNetwork(cellR []float64) (*circuit.Network, int, error) {
	cfg := x.Cfg
	nw, cellEdgeStart, err := x.assembleSneakCore(cellR)
	if err != nil {
		return nil, 0, err
	}
	for r := 0; r < cfg.Rows; r++ {
		if err := nw.AddResistor(x.rowTerm(r), circuit.Ground, cfg.RKeeper); err != nil {
			return nil, 0, err
		}
	}
	for c := 0; c < cfg.Cols; c++ {
		if err := nw.AddResistor(x.colTerm(c), circuit.Ground, cfg.RKeeper); err != nil {
			return nil, 0, err
		}
	}
	return nw, cellEdgeStart, nil
}

// assembleSneakCore builds the drive-independent part of the sneak network:
// wire segments and cell edges, in the fixed edge order setSneakResistances
// and the calibration rely on.
func (x *Crossbar) assembleSneakCore(cellR []float64) (*circuit.Network, int, error) {
	cfg := x.Cfg
	if cellR == nil {
		cellR = make([]float64, cfg.Cells())
		for i := range cellR {
			cellR[i] = x.resistance(i, x.levels[i])
		}
	} else if len(cellR) != cfg.Cells() {
		return nil, 0, fmt.Errorf("xbar: cellR length %d != %d", len(cellR), cfg.Cells())
	}
	nw := circuit.NewNetwork(x.totalNodes())
	// Wire segments. Terminals attach at column 0 (rows) and row 0
	// (columns).
	for r := 0; r < cfg.Rows; r++ {
		if err := nw.AddResistor(x.rowTerm(r), x.rowNode(r, 0), nz(cfg.RWireRow)); err != nil {
			return nil, 0, err
		}
		for j := 0; j+1 < cfg.Cols; j++ {
			if err := nw.AddResistor(x.rowNode(r, j), x.rowNode(r, j+1), nz(cfg.RWireRow)); err != nil {
				return nil, 0, err
			}
		}
	}
	for c := 0; c < cfg.Cols; c++ {
		if err := nw.AddResistor(x.colTerm(c), x.colNode(0, c), nz(cfg.RWireCol)); err != nil {
			return nil, 0, err
		}
		for i := 0; i+1 < cfg.Rows; i++ {
			if err := nw.AddResistor(x.colNode(i, c), x.colNode(i+1, c), nz(cfg.RWireCol)); err != nil {
				return nil, 0, err
			}
		}
	}
	// Cells: memristor + access transistor in series, all on in sneak mode.
	// Cell edges occupy consecutive indices starting at cellEdgeStart.
	cellEdgeStart := cfg.Rows*cfg.Cols + cfg.Cols*cfg.Rows
	for r := 0; r < cfg.Rows; r++ {
		for j := 0; j < cfg.Cols; j++ {
			i := cfg.Index(Cell{Row: r, Col: j})
			if err := nw.AddResistor(x.rowNode(r, j), x.colNode(r, j), cellR[i]+cfg.RAccess); err != nil {
				return nil, 0, err
			}
		}
	}
	return nw, cellEdgeStart, nil
}

// setSneakResistances refills a network built by buildNetwork with new wire
// and cell resistances in place, relying on its fixed edge layout: row-wire
// segments occupy edges [0, Rows*Cols), column-wire segments the next
// Rows*Cols, then the cells starting at cellEdge. Keeper and drive entries
// are untouched. Together with a circuit.Workspace this turns a parametric
// sweep into refill+resolve with no per-sample network assembly.
func (x *Crossbar) setSneakResistances(nw *circuit.Network, cellEdge int, rWireRow, rWireCol float64, cellR []float64) error {
	nWire := x.Cfg.Rows * x.Cfg.Cols
	for i := 0; i < nWire; i++ {
		if err := nw.SetResistance(i, nz(rWireRow)); err != nil {
			return err
		}
	}
	for i := nWire; i < 2*nWire; i++ {
		if err := nw.SetResistance(i, nz(rWireCol)); err != nil {
			return err
		}
	}
	for i, r := range cellR {
		if err := nw.SetResistance(cellEdge+i, r+x.Cfg.RAccess); err != nil {
			return err
		}
	}
	return nil
}

// nz guards against zero wire resistance (an ideal wire would merge nodes);
// a tiny positive value keeps the network well-posed.
func nz(r float64) float64 {
	if r <= 0 {
		return 1e-3
	}
	return r
}

// midR returns the per-cell mid-state resistance vector.
func (x *Crossbar) midR() []float64 {
	out := make([]float64, x.Cfg.Cells())
	for i := range out {
		out[i] = x.midResistance(i)
	}
	return out
}

// VoltageMap solves the sneak network at the nominal mid state and returns
// |voltage| per cell — the Fig. 4 quantity.
func (x *Crossbar) VoltageMap(poe Cell) ([]float64, error) {
	dv, err := x.SolveVoltages(poe, x.midR())
	if err != nil {
		return nil, err
	}
	for i, v := range dv {
		if v < 0 {
			dv[i] = -v
		}
	}
	return dv, nil
}

// Shape returns the polyomino of a PoE under the configured rule.
func (x *Crossbar) Shape(poe Cell) ([]Cell, error) {
	switch x.Cfg.Shape {
	case ShapePaper:
		return x.Cfg.PaperShape(poe), nil
	case ShapeVoltage:
		dv, err := x.VoltageMap(poe)
		if err != nil {
			return nil, err
		}
		var out []Cell
		for i, v := range dv {
			if v >= x.params[i].VtOff {
				out = append(out, x.Cfg.CellAt(i))
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("xbar: unknown shape rule %d", x.Cfg.Shape)
	}
}
