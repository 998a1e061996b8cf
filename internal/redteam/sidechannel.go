package redteam

import (
	"fmt"
	"math"

	"snvmm/internal/core"
	"snvmm/internal/nist"
	"snvmm/internal/prng"
	"snvmm/internal/xbar"
)

// recorder captures every pulse of one block encryption.
type recorder struct {
	pulses []xbar.PulseTrace
}

func (r *recorder) OnPulse(t xbar.PulseTrace) { r.pulses = append(r.pulses, t) }

// SideChannelConfig parameterizes one TVLA fixed-vs-random experiment.
type SideChannelConfig struct {
	// Mode selects the pulse driver under test: xbar.TraceBalanced is the
	// hardened production driver, xbar.TraceRaw the leaky reference.
	Mode xbar.TraceMode
	// TracesPerGroup is the number of block encryptions recorded per group
	// (fixed-key group and random-key group). <= 0 selects 40.
	TracesPerGroup int
	// Seed fixes the fabrication, the keys and the scope noise.
	Seed int64
	// ScopeNoise is the relative amplitude of the measurement noise added
	// to every sample (an oscilloscope's quantization and jitter). 0 means
	// an ideal probe.
	ScopeNoise float64
	// Alpha is the significance level (<= 0 selects nist.Alpha = 0.01).
	Alpha float64
}

// SideChannelReport is the distinguisher's verdict on one driver.
type SideChannelReport struct {
	Driver         string  `json:"driver"` // "balanced" or "raw"
	TracesPerGroup int     `json:"traces_per_group"`
	SamplePoints   int     `json:"sample_points"` // per-trace feature count
	MinP           float64 `json:"min_p"`         // smallest per-point Welch p
	CorrectedP     float64 `json:"corrected_p"`   // Bonferroni-corrected
	Alpha          float64 `json:"alpha"`
	Leaks          bool    `json:"leaks"` // CorrectedP < Alpha
}

// DriverName names a trace mode for reports.
func DriverName(mode xbar.TraceMode) string {
	if mode == xbar.TraceRaw {
		return "raw"
	}
	return "balanced"
}

// RunSideChannel mounts the TVLA fixed-vs-random key experiment against the
// given engine's cipher under the configured pulse driver. Group A encrypts
// a fixed plaintext under one fixed key; group B encrypts the same
// plaintext under a fresh random key per trace. Each trace contributes the
// per-pulse (duration, energy) feature vector; Welch's t-test compares the
// groups at every sample point and the smallest p-value is
// Bonferroni-corrected over the number of points. A keyed observable —
// pulse widths following the key's class schedule, supply draw following
// the keyed PoE order — separates the groups and drives the corrected p
// below alpha; a power-balanced observable cannot.
func RunSideChannel(eng *core.Engine, cfg SideChannelConfig) (*SideChannelReport, error) {
	n := cfg.TracesPerGroup
	if n <= 0 {
		n = 40
	}
	alpha := cfg.Alpha
	if alpha <= 0 {
		alpha = nist.Alpha
	}
	c, err := core.NewCipher(eng, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rec := &recorder{}
	if err := c.SetTraceSink(rec, cfg.Mode); err != nil {
		return nil, err
	}
	g := prng.NewGen(uint64(cfg.Seed)*0xA24BAED4963EE407 + 0x9FB21C651E98DF25)
	pt := make([]byte, c.BlockBytes())
	for i := range pt {
		pt[i] = byte(g.Uint64())
	}
	fixedKey := prng.NewKey(g.Uint64(), g.Uint64())

	points := 2 * len(eng.Placement) // duration + energy per pulse
	capture := func(key prng.Key) ([]float64, error) {
		rec.pulses = rec.pulses[:0]
		if _, err := c.Encrypt(key, pt); err != nil {
			return nil, err
		}
		if len(rec.pulses) != len(eng.Placement) {
			return nil, fmt.Errorf("redteam: captured %d pulses, want %d", len(rec.pulses), len(eng.Placement))
		}
		out := make([]float64, 0, points)
		for _, p := range rec.pulses {
			out = append(out, p.Duration*(1+cfg.ScopeNoise*gauss(g)))
			out = append(out, p.Energy*(1+cfg.ScopeNoise*gauss(g)))
		}
		return out, nil
	}

	groupA := make([][]float64, n)
	groupB := make([][]float64, n)
	for i := 0; i < n; i++ {
		if groupA[i], err = capture(fixedKey); err != nil {
			return nil, err
		}
		if groupB[i], err = capture(prng.NewKey(g.Uint64(), g.Uint64())); err != nil {
			return nil, err
		}
	}

	minP := 1.0
	a := make([]float64, n)
	b := make([]float64, n)
	for j := 0; j < points; j++ {
		for i := 0; i < n; i++ {
			a[i] = groupA[i][j]
			b[i] = groupB[i][j]
		}
		r := nist.WelchT(a, b)
		if r.Applicable && r.P[0] < minP {
			minP = r.P[0]
		}
	}
	corrected := math.Min(1, minP*float64(points))
	return &SideChannelReport{
		Driver:         DriverName(cfg.Mode),
		TracesPerGroup: n,
		SamplePoints:   points,
		MinP:           minP,
		CorrectedP:     corrected,
		Alpha:          alpha,
		Leaks:          corrected < alpha,
	}, nil
}

// gauss draws a standard normal variate from the harness generator
// (Box-Muller; one branch retried on the log's degenerate zero draw).
func gauss(g *prng.Gen) float64 {
	for {
		u := float64(g.Uint64()>>11) / float64(1<<53)
		v := float64(g.Uint64()>>11) / float64(1<<53)
		if u == 0 {
			continue
		}
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}
