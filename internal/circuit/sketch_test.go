package circuit

import (
	"math"
	"math/rand"
	"testing"
)

// sketchFixture builds two equivalent views of one random resistor mesh:
// the floating variant (every terminal held through a keeper, only ground
// fixed) that FactorSketch consumes, and the driven variant (terminals t1/t2
// voltage-fixed, no keepers there) that the classic FactorSystem path
// solves. Mesh edges are added first and in the same order in both, so edge
// indices used for perturbations agree.
type sketchFixture struct {
	floating *Network
	driven   *Network
	nodes    int
	t1, t2   int
	meshA    []int // mesh edge endpoints
	meshB    []int
	meshR    []float64
	vdrive   float64
}

func buildSketchFixture(t *testing.T, seed int64) *sketchFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const nodes = 40
	fx := &sketchFixture{
		floating: NewNetwork(nodes),
		driven:   NewNetwork(nodes),
		nodes:    nodes,
		t1:       1,
		t2:       2,
		vdrive:   0.7,
	}
	addMesh := func(a, b int, r float64) {
		fx.meshA = append(fx.meshA, a)
		fx.meshB = append(fx.meshB, b)
		fx.meshR = append(fx.meshR, r)
		if err := fx.floating.AddResistor(a, b, r); err != nil {
			t.Fatal(err)
		}
		if err := fx.driven.AddResistor(a, b, r); err != nil {
			t.Fatal(err)
		}
	}
	// Ring over all non-ground nodes keeps the mesh connected; random chords
	// add sneak-path-like structure.
	for i := 1; i < nodes; i++ {
		j := i + 1
		if j == nodes {
			j = 1
		}
		addMesh(i, j, 100+rng.Float64()*9900)
	}
	for k := 0; k < 60; k++ {
		a := 1 + rng.Intn(nodes-1)
		b := 1 + rng.Intn(nodes-1)
		if a == b {
			continue
		}
		addMesh(a, b, 100+rng.Float64()*9900)
	}
	// Keepers: terminals t1/t2 plus a few bystander nodes. In the driven
	// variant t1/t2 are voltage sources instead (the crossbar's PoE drive).
	const rKeeper = 50
	for _, n := range []int{fx.t1, fx.t2, 7, 19, 33} {
		if err := fx.floating.AddResistor(n, Ground, rKeeper); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{7, 19, 33} {
		if err := fx.driven.AddResistor(n, Ground, rKeeper); err != nil {
			t.Fatal(err)
		}
	}
	if err := fx.driven.FixVoltage(fx.t1, fx.vdrive); err != nil {
		t.Fatal(err)
	}
	if err := fx.driven.FixVoltage(fx.t2, -fx.vdrive); err != nil {
		t.Fatal(err)
	}
	return fx
}

// probePairs returns the probe set: endpoints of a spread of mesh edges.
func (fx *sketchFixture) probePairs() ([]ProbePair, []int) {
	var pairs []ProbePair
	var edges []int
	for e := 0; e < len(fx.meshA); e += 3 {
		a, b := fx.meshA[e], fx.meshB[e]
		if a == fx.t1 || a == fx.t2 || b == fx.t1 || b == fx.t2 {
			continue
		}
		pairs = append(pairs, ProbePair{A: a, B: b})
		edges = append(edges, e)
	}
	return pairs, edges
}

func relDiff(a, b, scale float64) float64 {
	return math.Abs(a-b) / math.Max(scale, 1e-30)
}

// TestSketchMatchesFactoredSystem pins the sketch's whole algebra — base
// drops and Sherman–Morrison perturbed drops — against the independently
// assembled driven-network Factored path.
func TestSketchMatchesFactoredSystem(t *testing.T) {
	fx := buildSketchFixture(t, 7)
	pairs, edges := fx.probePairs()
	sk, err := fx.floating.FactorSketch(pairs, []int{fx.t1, fx.t2}, SketchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pin, err := sk.Pin([]int{0, 1}, []float64{fx.vdrive, -fx.vdrive})
	if err != nil {
		t.Fatal(err)
	}
	fac, err := fx.driven.FactorSystem()
	if err != nil {
		t.Fatal(err)
	}
	base := fac.Base()
	for j, pr := range pairs {
		want := base.V[pr.A] - base.V[pr.B]
		if d := relDiff(pin.BaseDiff(j), want, fx.vdrive); d > 1e-9 {
			t.Fatalf("pair %d base diff: sketch %g vs factored %g (rel %g)", j, pin.BaseDiff(j), want, d)
		}
	}
	// Perturb every probed edge to 1.8x its resistance and compare the
	// perturbed drops across all probe pairs.
	perts := make([]EdgePerturbation, len(edges))
	for i, e := range edges {
		perts[i] = EdgePerturbation{Edge: e, NewOhms: fx.meshR[e] * 1.8}
	}
	want := make([]float64, len(perts)*len(pairs))
	if err := fac.SolveEdgesPerturbedDiffs(perts, pairs, want); err != nil {
		t.Fatal(err)
	}
	for i, e := range edges {
		dg := 1/perts[i].NewOhms - 1/fx.meshR[e]
		scale, err := pin.PerturbScale(i, dg)
		if err != nil {
			t.Fatal(err)
		}
		for q := range pairs {
			got := pin.BaseDiff(q) - scale*pin.Quad(q, i)
			if d := relDiff(got, want[i*len(pairs)+q], fx.vdrive); d > 1e-9 {
				t.Fatalf("pert %d probe %d: sketch %g vs factored %g (rel %g)", i, q, got, want[i*len(pairs)+q], d)
			}
		}
	}
}

func TestSketchRejectsDrivenNetworks(t *testing.T) {
	fx := buildSketchFixture(t, 3)
	pairs, _ := fx.probePairs()
	if _, err := fx.driven.FactorSketch(pairs, []int{fx.t1}, SketchOptions{}); err == nil {
		t.Fatal("FactorSketch accepted a network with fixed non-ground nodes")
	}
}

func TestSketchPinValidation(t *testing.T) {
	fx := buildSketchFixture(t, 5)
	pairs, _ := fx.probePairs()
	sk, err := fx.floating.FactorSketch(pairs, []int{fx.t1, fx.t2}, SketchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sk.Pin([]int{0, 2}, []float64{1, -1}); err == nil {
		t.Fatal("Pin accepted an out-of-range single")
	}
	if _, err := sk.Pin([]int{0, 0}, []float64{1, -1}); err == nil {
		t.Fatal("Pin accepted a duplicate single")
	}
	if _, err := sk.Pin([]int{0}, []float64{1, -1}); err == nil {
		t.Fatal("Pin accepted mismatched lengths")
	}
}
