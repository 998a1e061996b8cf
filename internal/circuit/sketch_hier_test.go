package circuit

import (
	"math"
	"testing"
)

// hierOpts builds hierarchical-backend options over the fixture's unknowns:
// an identity elimination order (numerically correct for any permutation;
// fill is irrelevant at test size) and a caller-chosen sparsity.
func hierOpts(n int, sp *SketchSparsity) SketchOptions {
	ord := make([]int, n)
	for i := range ord {
		ord[i] = i
	}
	return SketchOptions{Order: ord, Sparsity: sp}
}

// fullSparsity materializes every W/C entry — the hierarchical backend with
// no truncation, used to compare against the dense tables one-for-one.
func fullSparsity(np, ns int) *SketchSparsity {
	all := make([]int32, np)
	for j := range all {
		all[j] = int32(j)
	}
	sp := &SketchSparsity{PairRows: make([][]int32, np), SingleRows: make([][]int32, ns)}
	for i := range sp.PairRows {
		sp.PairRows[i] = all
	}
	for s := range sp.SingleRows {
		sp.SingleRows[s] = all
	}
	return sp
}

// tableScale returns the largest magnitude in a dense table — the right
// comparison scale, because table entries are dot products of probe columns
// and their absolute error follows the column norms, not the entry value
// (a far pair's near-zero W entry is a cancellation, not a small number).
func tableScale(vals []float64) float64 {
	s := 1e-30
	for _, v := range vals {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// TestHierBackendMatchesDense compares every Green-table entry and every
// pinned query of the hierarchical backend (full sparsity, full window)
// against the dense backend on the same network.
func TestHierBackendMatchesDense(t *testing.T) {
	fx := buildSketchFixture(t, 11)
	pairs, _ := fx.probePairs()
	singles := []int{fx.t1, fx.t2, 7, 19}
	dense, err := fx.floating.FactorSketch(pairs, singles, SketchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if dense.Backend() != SketchDense {
		t.Fatalf("reference backend = %v, want dense", dense.Backend())
	}
	np, ns := len(pairs), len(singles)
	hier, err := fx.floating.FactorSketch(pairs, singles, hierOpts(fx.nodes-1, fullSparsity(np, ns)))
	if err != nil {
		t.Fatal(err)
	}
	if hier.Backend() != SketchHier {
		t.Fatalf("backend = %v, want hierarchical", hier.Backend())
	}
	if hier.NDDepth() < 1 {
		t.Fatalf("NDDepth = %d, want >= 1", hier.NDDepth())
	}
	const tol = 1e-9
	tScale := tableScale(dense.tmat)
	cScale := tableScale(dense.cmat)
	wScale := tableScale(dense.w)
	for s := 0; s < ns; s++ {
		for u := 0; u < ns; u++ {
			d, h := dense.tmat[s*ns+u], hier.tmat[s*ns+u]
			if relDiff(h, d, tScale) > tol {
				t.Fatalf("T[%d][%d] = %g, dense %g", s, u, h, d)
			}
		}
		for j := 0; j < np; j++ {
			h, ok := hier.cAt(s, j)
			if !ok {
				t.Fatalf("C[%d][%d] missing under full sparsity", s, j)
			}
			if d := dense.cmat[s*np+j]; relDiff(h, d, cScale) > tol {
				t.Fatalf("C[%d][%d] = %g, dense %g", s, j, h, d)
			}
		}
	}
	for i := 0; i < np; i++ {
		for j := 0; j < np; j++ {
			if h, d := hier.wAt(i, j), dense.w[i*np+j]; relDiff(h, d, wScale) > tol {
				t.Fatalf("W[%d][%d] = %g, dense %g", i, j, h, d)
			}
		}
	}
	// Pinned operating point: full window against the unwindowed dense pin.
	win := make([]int32, np)
	for j := range win {
		win[j] = int32(j)
	}
	dpin, err := dense.Pin([]int{0, 1}, []float64{fx.vdrive, -fx.vdrive})
	if err != nil {
		t.Fatal(err)
	}
	hpin, err := hier.PinWindow([]int{0, 1}, []float64{fx.vdrive, -fx.vdrive}, win)
	if err != nil {
		t.Fatal(err)
	}
	const dg = 1e-4
	for j := 0; j < np; j++ {
		if relDiff(hpin.BaseDiff(j), dpin.BaseDiff(j), fx.vdrive) > tol {
			t.Fatalf("BaseDiff(%d): %g vs %g", j, hpin.BaseDiff(j), dpin.BaseDiff(j))
		}
		for i := 0; i < np; i++ {
			if qd, qh := dpin.Quad(i, j), hpin.Quad(i, j); relDiff(qh, qd, wScale) > tol {
				t.Fatalf("Quad(%d,%d): %g vs %g", i, j, qh, qd)
			}
		}
		sd, errd := dpin.PerturbScale(j, dg)
		sh, errh := hpin.PerturbScale(j, dg)
		if errd != nil || errh != nil {
			t.Fatalf("PerturbScale(%d): %v / %v", j, errd, errh)
		}
		// Scale errors propagate as dg * (BaseDiff and Quad errors).
		if relDiff(sh, sd, dg*fx.vdrive*(1+wScale)) > tol {
			t.Fatalf("PerturbScale(%d): %g vs %g", j, sh, sd)
		}
	}
	if hier.TableEntries() != int64(np*np+ns*np+ns*ns) {
		t.Fatalf("full-sparsity TableEntries = %d, want %d", hier.TableEntries(), np*np+ns*np+ns*ns)
	}
}

// TestHierTruncatedWindow checks the block-sparse mode proper: only a
// window's worth of table entries is materialized, windowed pins answer all
// in-window queries exactly like the dense path, and memory drops.
func TestHierTruncatedWindow(t *testing.T) {
	fx := buildSketchFixture(t, 23)
	pairs, _ := fx.probePairs()
	singles := []int{fx.t1, fx.t2}
	np, ns := len(pairs), len(singles)
	dense, err := fx.floating.FactorSketch(pairs, singles, SketchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Window: every third pair. Rows: the window for members, diagonal-only
	// for the rest (keeps the pattern symmetric and self-inclusive).
	var win []int32
	inWin := make([]bool, np)
	for j := 0; j < np; j += 3 {
		win = append(win, int32(j))
		inWin[j] = true
	}
	sp := &SketchSparsity{PairRows: make([][]int32, np), SingleRows: make([][]int32, ns)}
	for i := range sp.PairRows {
		if inWin[i] {
			sp.PairRows[i] = win
		} else {
			sp.PairRows[i] = []int32{int32(i)}
		}
	}
	for s := range sp.SingleRows {
		sp.SingleRows[s] = win
	}
	hier, err := fx.floating.FactorSketch(pairs, singles, hierOpts(fx.nodes-1, sp))
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := hier.TableEntries(), int64(np*np+ns*np+ns*ns); got >= limit {
		t.Fatalf("truncated TableEntries = %d, not below dense %d", got, limit)
	}
	if hier.TableBytes() >= dense.TableBytes() {
		t.Fatalf("truncated TableBytes = %d, not below dense %d", hier.TableBytes(), dense.TableBytes())
	}
	dpin, err := dense.Pin([]int{0, 1}, []float64{fx.vdrive, -fx.vdrive})
	if err != nil {
		t.Fatal(err)
	}
	hpin, err := hier.PinWindow([]int{0, 1}, []float64{fx.vdrive, -fx.vdrive}, win)
	if err != nil {
		t.Fatal(err)
	}
	const tol = 1e-9
	wScale := tableScale(dense.w)
	for _, j := range win {
		if bd, bh := dpin.BaseDiff(int(j)), hpin.BaseDiff(int(j)); relDiff(bh, bd, fx.vdrive) > tol {
			t.Fatalf("BaseDiff(%d): %g vs %g", j, bh, bd)
		}
		for _, i := range win {
			if qd, qh := dpin.Quad(int(i), int(j)), hpin.Quad(int(i), int(j)); relDiff(qh, qd, wScale) > tol {
				t.Fatalf("Quad(%d,%d): %g vs %g", i, j, qh, qd)
			}
		}
	}
	// Out-of-window queries must fail loudly, not return garbage.
	var outside int
	for j := 0; j < np; j++ {
		if !inWin[j] {
			outside = j
			break
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BaseDiff outside window did not panic")
			}
		}()
		hpin.BaseDiff(outside)
	}()
}

// TestHierOptionValidation pins the error paths: an order without a
// sparsity or a sparsity without an order, malformed sparsity patterns,
// windowless pins, and windows escaping the C sparsity must all error.
func TestHierOptionValidation(t *testing.T) {
	fx := buildSketchFixture(t, 3)
	pairs, _ := fx.probePairs()
	singles := []int{fx.t1, fx.t2}
	np, ns := len(pairs), len(singles)
	n := fx.nodes - 1
	opts := hierOpts(n, fullSparsity(np, ns))
	if _, err := fx.floating.FactorSketch(pairs, singles, SketchOptions{Order: opts.Order}); err == nil {
		t.Error("order without sparsity accepted")
	}
	if _, err := fx.floating.FactorSketch(pairs, singles, SketchOptions{Sparsity: opts.Sparsity}); err == nil {
		t.Error("sparsity without order accepted")
	}
	opts.Order = opts.Order[:n-1]
	if _, err := fx.floating.FactorSketch(pairs, singles, opts); err == nil {
		t.Error("short order accepted")
	}
	// Asymmetric pair sparsity: 1 in row 0 but 0 not in row 1.
	sp := fullSparsity(np, ns)
	sp.PairRows = make([][]int32, np)
	sp.PairRows[0] = []int32{0, 1}
	for i := 1; i < np; i++ {
		sp.PairRows[i] = []int32{int32(i)}
	}
	if _, err := fx.floating.FactorSketch(pairs, singles, hierOpts(n, sp)); err == nil {
		t.Error("asymmetric sparsity accepted")
	}
	// Missing diagonal.
	sp = fullSparsity(np, ns)
	rows := make([][]int32, np)
	copy(rows, sp.PairRows)
	rows[2] = []int32{0, 1}
	sp.PairRows = rows
	if _, err := fx.floating.FactorSketch(pairs, singles, hierOpts(n, sp)); err == nil {
		t.Error("diagonal-less sparsity accepted")
	}
	// A valid hierarchical sketch refuses windowless pins and out-of-
	// sparsity windows.
	hier, err := fx.floating.FactorSketch(pairs, singles, hierOpts(n, fullSparsity(np, ns)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hier.Pin([]int{0, 1}, []float64{1, -1}); err == nil {
		t.Error("windowless pin on hierarchical sketch accepted")
	}
	if _, err := hier.PinWindow([]int{0, 1}, []float64{1, -1}, []int32{2, 1}); err == nil {
		t.Error("unsorted window accepted")
	}
	narrow := fullSparsity(np, ns)
	narrow.SingleRows = make([][]int32, ns)
	for s := range narrow.SingleRows {
		narrow.SingleRows[s] = []int32{0}
	}
	hier2, err := fx.floating.FactorSketch(pairs, singles, hierOpts(n, narrow))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hier2.PinWindow([]int{0, 1}, []float64{1, -1}, []int32{0, 1}); err == nil {
		t.Error("window outside C sparsity accepted")
	}
}

// TestHierAutoSelection: FactorSketch builds the hierarchical backend
// exactly when a sparsity is given, whatever the unknown count, and the
// dense backend when it is absent.
func TestHierAutoSelection(t *testing.T) {
	fx := buildSketchFixture(t, 31)
	pairs, _ := fx.probePairs()
	singles := []int{fx.t1, fx.t2}
	opts := hierOpts(fx.nodes-1, fullSparsity(len(pairs), len(singles)))
	sk, err := fx.floating.FactorSketch(pairs, singles, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sk.Backend() != SketchHier {
		t.Fatalf("backend with sparsity = %v, want hierarchical", sk.Backend())
	}
	sk, err = fx.floating.FactorSketch(pairs, singles, SketchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sk.Backend() != SketchDense {
		t.Fatalf("backend without sparsity = %v, want dense", sk.Backend())
	}
}
