package circuit

import (
	"fmt"

	"snvmm/internal/linalg"
)

// ProbeSketch extends the probe-form Sherman–Morrison trick of
// SolveEdgesPerturbedDiffs from one factored operating point to a whole
// family of them. The crossbar calibration solves the same sneak network
// once per PoE, with only the two driven terminals changing between PoEs —
// n factorizations of an O(n)-node system, the O(n^6)-ish wall that keeps
// 32x32 devices out of reach.
//
// The sketch instead factors the network exactly once with no driven nodes
// (every terminal held through its keeper, only ground fixed) and
// precomputes Green-function tables against a fixed probe set:
//
//	W[i][j] = u_i^T G^-1 u_j   (pair/pair: u = e_A - e_B per probe pair)
//	C[s][j] = e_s^T G^-1 u_j   (single/pair)
//	T[s][t] = e_s^T G^-1 e_t   (single/single)
//
// Driving k terminals to fixed voltages is then a rank-k boundary
// constraint. With E the incidence of the pinned singles and M = E^T G^-1 E
// (a k x k slice of T), the constrained solution is x = G^-1 E M^-1 v, and
// the block-inverse identity gives the constrained (reduced-system) inverse
// purely in table entries:
//
//	u_i^T H u_j = W[i][j] - C_i^T M^-1 C_j,   H = (G restricted)^-1
//
// so every per-PoE quantity the calibration needs — base probe drops,
// Sherman–Morrison denominators, perturbed drops — costs O(k) table
// arithmetic instead of a linear solve. Building the tables costs one
// factorization plus ns+np batched solves, after which characterizing all n
// PoEs is table lookups: per-PoE cost scales with the swept neighbourhood,
// not with device size.
//
// Backends: dense Cholesky (LU fallback) with full tables, or, when the
// caller supplies an elimination order and a table sparsity, the
// nested-dissection sparse Cholesky with block-sparse tables
// (sketch_hier.go).
//
// A ProbeSketch is immutable once built and safe for concurrent readers.
type ProbeSketch struct {
	n      int // unknowns (nodes - 1, ground eliminated)
	np, ns int

	pa, pb []int // pair endpoints in unknown space
	si     []int // singles in unknown space

	backend SketchBackend

	// Dense tables (SketchDense backend).
	w    []float64 // np x np, W[i*np+j]
	cmat []float64 // ns x np, C[s*np+j]
	tmat []float64 // ns x ns, T[s*ns+t] (all backends)

	// Block-sparse tables (SketchHier backend): CSR-style rows over pair
	// ids, patterns fixed by SketchOptions.Sparsity. Entries outside the
	// pattern are never materialized.
	wptr, wcol []int32
	wval       []float64
	cptr, ccol []int32
	cval       []float64

	ndDepth int   // nested-dissection (supernodal etree) depth, hier only
	fillNNZ int64 // factor fill, hier only
}

// SketchBackend selects how FactorSketch factors the network and stores the
// Green tables.
type SketchBackend int

const (
	// SketchDense factors densely (Cholesky, LU fallback) and stores full
	// W/C/T tables.
	SketchDense SketchBackend = iota
	// SketchHier runs the nested-dissection supernodal sparse Cholesky
	// (linalg.FactorSparse) under the caller-supplied elimination order and
	// materializes only the table entries named by SketchOptions.Sparsity.
	SketchHier
)

// String names the backend for telemetry and logs.
func (b SketchBackend) String() string {
	if b == SketchHier {
		return "hierarchical"
	}
	return "dense"
}

// SketchSparsity names which Green-table entries a hierarchical sketch
// materializes. Row lists are pair ids, strictly ascending. PairRows must be
// symmetric (j in PairRows[i] iff i in PairRows[j]) and self-inclusive;
// FactorSketch validates and takes ownership of the slices.
type SketchSparsity struct {
	// PairRows[i] lists the pairs j for which W[i][j] is stored.
	PairRows [][]int32
	// SingleRows[s] lists the pairs j for which C[s][j] is stored.
	SingleRows [][]int32
}

// SketchOptions selects the sketch backend. The zero value builds the dense
// tables; supplying Sparsity (with Order) builds the hierarchical ones. The
// caller owns the choice: xbar supplies both for large ShapePaper devices
// (see its hierUnknownCutoff).
type SketchOptions struct {
	// Order is the elimination order for the hierarchical backend:
	// Order[k] is the unknown (node-1) eliminated at position k. Any
	// permutation is numerically correct; a nested-dissection order keeps
	// fill near-linear. Only valid together with Sparsity.
	Order []int
	// Sparsity restricts which table entries the hierarchical backend
	// materializes. Given, it selects that backend.
	Sparsity *SketchSparsity
}

// sketchPanel is the multi-RHS panel width of the dense backend.
const sketchPanel = 64

// FactorSketch factors the network once and precomputes the Green tables
// for the given probe pairs and single-node probes. The network must have
// no fixed nodes besides ground: boundary drives are applied per operating
// point through Pin, which is what lets one factorization serve them all.
func (nw *Network) FactorSketch(pairs []ProbePair, singles []int, opt SketchOptions) (*ProbeSketch, error) {
	if len(nw.fixed) != 1 {
		return nil, fmt.Errorf("circuit: FactorSketch needs a network with only ground fixed, got %d fixed nodes", len(nw.fixed))
	}
	if _, ok := nw.fixed[Ground]; !ok {
		return nil, fmt.Errorf("circuit: FactorSketch needs ground fixed")
	}
	np, ns := len(pairs), len(singles)
	if np == 0 {
		return nil, fmt.Errorf("circuit: FactorSketch needs at least one probe pair")
	}
	n := nw.nodes - 1
	if n == 0 {
		return nil, fmt.Errorf("circuit: FactorSketch needs at least one unknown node")
	}
	if opt.Order != nil && opt.Sparsity == nil {
		return nil, fmt.Errorf("circuit: sketch elimination order given without a table sparsity")
	}
	sk := &ProbeSketch{
		n: n, np: np, ns: ns,
		pa: make([]int, np), pb: make([]int, np),
		si:   make([]int, ns),
		tmat: make([]float64, ns*ns),
	}
	for q, pr := range pairs {
		if pr.A <= 0 || pr.A >= nw.nodes || pr.B <= 0 || pr.B >= nw.nodes || pr.A == pr.B {
			return nil, fmt.Errorf("circuit: probe pair (%d,%d) invalid", pr.A, pr.B)
		}
		sk.pa[q], sk.pb[q] = pr.A-1, pr.B-1
	}
	for s, nd := range singles {
		if nd <= 0 || nd >= nw.nodes {
			return nil, fmt.Errorf("circuit: single probe node %d out of range", nd)
		}
		sk.si[s] = nd - 1
	}
	if t := ctel.Load(); t != nil {
		t.sketchFactors.Inc()
		t.sketchProbes.Add(int64(ns + np))
	}
	backend := SketchDense
	if opt.Sparsity != nil {
		backend = SketchHier
	}
	sk.backend = backend
	// idx: node -> unknown. Only ground is eliminated, so the map is i-1.
	idx := make([]int, nw.nodes)
	idx[Ground] = -1
	for i := 1; i < nw.nodes; i++ {
		idx[i] = i - 1
	}
	vfixed := make([]float64, nw.nodes) // ground at 0; no other fixed nodes
	var err error
	if backend == SketchHier {
		err = sk.buildHier(nw, idx, vfixed, opt)
	} else {
		sk.w = make([]float64, np*np)
		sk.cmat = make([]float64, ns*np)
		err = sk.buildDense(nw, idx, vfixed)
	}
	if err != nil {
		return nil, err
	}
	if t := ctel.Load(); t != nil {
		if backend == SketchHier {
			t.sketchHier.Inc()
		} else {
			t.sketchDense.Inc()
		}
		t.sketchDepth.Set(int64(sk.ndDepth))
		t.sketchTableFill.Set(sk.TableEntries())
		t.sketchTableDense.Set(int64(np)*int64(np) + int64(ns)*int64(np) + int64(ns)*int64(ns))
		t.sketchFactorFill.Set(sk.fillNNZ)
	}
	return sk, nil
}

// Backend reports which backend FactorSketch resolved to.
func (sk *ProbeSketch) Backend() SketchBackend { return sk.backend }

// NDDepth returns the nested-dissection depth of the hierarchical factor
// (0 for the dense backend).
func (sk *ProbeSketch) NDDepth() int { return sk.ndDepth }

// TableEntries returns the number of Green-table entries materialized
// (W + C + T). For the hierarchical backend this is the block-sparse fill;
// for the dense one the full dense count.
func (sk *ProbeSketch) TableEntries() int64 {
	if sk.backend == SketchHier {
		return int64(len(sk.wval)) + int64(len(sk.cval)) + int64(len(sk.tmat))
	}
	return int64(len(sk.w)) + int64(len(sk.cmat)) + int64(len(sk.tmat))
}

// TableBytes returns the resident size of the Green tables in bytes,
// including sparse-index overhead — the quantity the truncation radius is
// supposed to bound independently of device size.
func (sk *ProbeSketch) TableBytes() int64 {
	if sk.backend == SketchHier {
		return int64(len(sk.wval)+len(sk.cval)+len(sk.tmat))*8 +
			int64(len(sk.wptr)+len(sk.wcol)+len(sk.cptr)+len(sk.ccol))*4
	}
	return int64(len(sk.w)+len(sk.cmat)+len(sk.tmat)) * 8
}

// buildDense assembles the dense conductance system, factors it (Cholesky,
// LU fallback) and streams the probe panel through it in fixed-width
// chunks. Panel columns solve with per-column-independent recurrences, so
// every table entry is a pure function of the network — independent of
// chunking and of which other probes are requested.
func (sk *ProbeSketch) buildDense(nw *Network, idx []int, vfixed []float64) error {
	n := sk.n
	g := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		g.Add(i, i, Gmin)
	}
	bdump := make([]float64, n) // stays zero: only ground (0 V) is fixed
	for _, r := range nw.edges {
		stampDense(g, bdump, idx, vfixed, r)
	}
	chol := linalg.NewCholesky(n)
	var lu *linalg.LU
	if err := chol.Factor(g); err != nil {
		chol = nil
		var luErr error
		lu, luErr = linalg.Factor(g)
		if luErr != nil {
			return fmt.Errorf("circuit: factoring sketch system: %w", luErr)
		}
	}
	batch := sketchPanel
	total := sk.ns + sk.np
	panel := make([]float64, n*batch)
	for lo := 0; lo < total; lo += batch {
		k := batch
		if lo+k > total {
			k = total - lo
		}
		sub := panel[:n*k]
		for i := range sub {
			sub[i] = 0
		}
		for c := 0; c < k; c++ {
			if q := lo + c; q < sk.ns {
				sub[sk.si[q]*k+c] = 1
			} else {
				j := q - sk.ns
				sub[sk.pa[j]*k+c] = 1
				sub[sk.pb[j]*k+c] = -1
			}
		}
		var err error
		if chol != nil {
			err = chol.SolveBatchInto(sub, sub, k)
		} else {
			err = lu.SolveBatchInto(sub, sub, k)
		}
		if err != nil {
			return err
		}
		for c := 0; c < k; c++ {
			sk.extractColumn(lo+c, sub, k, c)
		}
	}
	return nil
}

// extractColumn scatters solved probe column q (column c of an n x k
// row-major panel y) into the Green tables.
func (sk *ProbeSketch) extractColumn(q int, y []float64, k, c int) {
	if q < sk.ns {
		for t := 0; t < sk.ns; t++ {
			sk.tmat[q*sk.ns+t] = y[sk.si[t]*k+c]
		}
		return
	}
	j := q - sk.ns
	for i := 0; i < sk.np; i++ {
		sk.w[i*sk.np+j] = y[sk.pa[i]*k+c] - y[sk.pb[i]*k+c]
	}
	for s := 0; s < sk.ns; s++ {
		sk.cmat[s*sk.np+j] = y[sk.si[s]*k+c]
	}
}

// NumPairs returns the number of probe pairs in the sketch.
func (sk *ProbeSketch) NumPairs() int { return sk.np }

// NumSingles returns the number of single-node probes in the sketch.
func (sk *ProbeSketch) NumSingles() int { return sk.ns }

// PinnedSketch is one operating point of a ProbeSketch: a set of single
// probes pinned to fixed voltages. It precomputes the M^-1-projected probe
// columns so BaseDiff and Quad are O(k) per call. Immutable once built and
// safe for concurrent readers.
//
// A pin built through PinWindow restricts its arrays to the window's pairs:
// methods keep their pair-id signatures and translate by binary search.
// Querying a pair outside the window — or, on a hierarchical sketch, a W
// entry outside the truncation sparsity — panics: the window is constructed
// by the same caller that sweeps it, so a miss is a caller bug, never data.
type PinnedSketch struct {
	sk  *ProbeSketch
	k   int
	win []int32   // nil: full (dense tables); else sorted pair ids
	nw  int       // row width of cf/mc (np, or len(win))
	cf  []float64 // k x nw: cf[a*nw+p] = C[fixed_a][win[p]]
	mc  []float64 // k x nw: column p is M^-1 * C[.][win[p]]
	bd  []float64 // nw: u^T x_base per window pair
}

// Pin applies fixed voltages volts to the probe singles at positions fixed
// (indices into the singles list given to FactorSketch) and returns the
// constrained operating point over all pairs. Hierarchical sketches must
// use PinWindow: their C tables only exist inside the truncation sparsity.
func (sk *ProbeSketch) Pin(fixed []int, volts []float64) (*PinnedSketch, error) {
	return sk.PinWindow(fixed, volts, nil)
}

// PinWindow is Pin restricted to a query window: a strictly ascending list
// of pair ids the caller will actually sweep. The per-pin arrays are sized
// by the window instead of by the device, which is what keeps per-PoE cost
// neighbourhood-bound on large devices. A nil window means all pairs (dense
// backend only).
func (sk *ProbeSketch) PinWindow(fixed []int, volts []float64, window []int32) (*PinnedSketch, error) {
	k := len(fixed)
	if k == 0 || k != len(volts) {
		return nil, fmt.Errorf("circuit: Pin needs matching fixed/volt lists, got %d/%d", k, len(volts))
	}
	for a, f := range fixed {
		if f < 0 || f >= sk.ns {
			return nil, fmt.Errorf("circuit: pinned single %d out of range [0,%d)", f, sk.ns)
		}
		for b := 0; b < a; b++ {
			if fixed[b] == f {
				return nil, fmt.Errorf("circuit: single %d pinned twice", f)
			}
		}
	}
	if window == nil && sk.backend == SketchHier {
		return nil, fmt.Errorf("circuit: hierarchical sketch needs a pin window (tables are truncation-sparse)")
	}
	for p := range window {
		if window[p] < 0 || int(window[p]) >= sk.np {
			return nil, fmt.Errorf("circuit: pin window pair %d out of range [0,%d)", window[p], sk.np)
		}
		if p > 0 && window[p] <= window[p-1] {
			return nil, fmt.Errorf("circuit: pin window not strictly ascending at %d", p)
		}
	}
	// M = E^T G^-1 E is the pinned slice of T.
	m := linalg.NewDense(k, k)
	for a, fa := range fixed {
		for b, fb := range fixed {
			m.Add(a, b, sk.tmat[fa*sk.ns+fb])
		}
	}
	lu, err := linalg.Factor(m)
	if err != nil {
		return nil, fmt.Errorf("circuit: Pin constraint system singular: %w", err)
	}
	lam := make([]float64, k)
	if err := lu.SolveInto(lam, volts); err != nil {
		return nil, err
	}
	nw := sk.np
	if window != nil {
		nw = len(window)
	}
	p := &PinnedSketch{
		sk: sk, k: k, win: window, nw: nw,
		cf: make([]float64, k*nw),
		mc: make([]float64, k*nw),
		bd: make([]float64, nw),
	}
	for a, fa := range fixed {
		row := p.cf[a*nw : (a+1)*nw]
		if window == nil {
			copy(row, sk.cmat[fa*sk.np:(fa+1)*sk.np])
			continue
		}
		for x, j := range window {
			v, ok := sk.cAt(fa, int(j))
			if !ok {
				return nil, fmt.Errorf("circuit: pin window pair %d outside C sparsity of single %d", j, fa)
			}
			row[x] = v
		}
	}
	tmp := make([]float64, k)
	out := make([]float64, k)
	for j := 0; j < nw; j++ {
		for a := 0; a < k; a++ {
			tmp[a] = p.cf[a*nw+j]
		}
		if err := lu.SolveInto(out, tmp); err != nil {
			return nil, err
		}
		for a := 0; a < k; a++ {
			p.mc[a*nw+j] = out[a]
		}
	}
	// Base drops: u_j^T x = u_j^T G^-1 E lam = C[.][j] . lam.
	for j := 0; j < nw; j++ {
		s := 0.0
		for a := 0; a < k; a++ {
			s += p.cf[a*nw+j] * lam[a]
		}
		p.bd[j] = s
	}
	return p, nil
}

// pos translates a pair id to its window position (identity when unwindowed).
func (p *PinnedSketch) pos(j int) int {
	if p.win == nil {
		return j
	}
	lo, hi := 0, len(p.win)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(p.win[mid]) < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= len(p.win) || int(p.win[lo]) != j {
		panic(fmt.Sprintf("circuit: pair %d outside pin window", j))
	}
	return lo
}

// BaseDiff returns the base operating-point voltage difference across probe
// pair j (V(A) - V(B)).
func (p *PinnedSketch) BaseDiff(j int) float64 { return p.bd[p.pos(j)] }

// Quad returns u_i^T H u_j, the constrained-inverse quadratic form between
// probe pairs i and j — the Sherman–Morrison coupling of an edge
// perturbation on pair j's edge to the voltage observed across pair i.
func (p *PinnedSketch) Quad(i, j int) float64 {
	var s float64
	if p.sk.backend == SketchHier {
		s = p.sk.wAt(i, j)
	} else {
		s = p.sk.w[i*p.sk.np+j]
	}
	pi, pj := p.pos(i), p.pos(j)
	for a := 0; a < p.k; a++ {
		s -= p.cf[a*p.nw+pi] * p.mc[a*p.nw+pj]
	}
	return s
}

// PerturbScale returns the Sherman–Morrison scale for a conductance change
// of dg siemens on the edge spanning pair j: the perturbed difference
// across pair i is BaseDiff(i) - scale*Quad(i, j). Mirrors the scale term
// of Factored.SolveEdgePerturbed with H in place of the factored inverse.
func (p *PinnedSketch) PerturbScale(j int, dg float64) (float64, error) {
	denom := 1 + dg*p.Quad(j, j)
	if denom == 0 {
		return 0, fmt.Errorf("circuit: singular rank-1 update on probe pair %d", j)
	}
	return dg * p.bd[p.pos(j)] / denom, nil
}
