package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"snvmm"
	"snvmm/internal/core"
	"snvmm/internal/poe"
	"snvmm/internal/prng"
	"snvmm/internal/xbar"
)

// workload is one named traffic mix. Load comes from a single client
// goroutine in a closed loop: the next request is sent only when the
// previous one has returned, as an L2 miss waits for its block.
type workload struct {
	name string
	why  string

	geom     int       // crossbar rows = cols
	maxNodes int       // placement B&B node cap (0 = solver default)
	mode     core.Mode // SPE-serial or SPE-parallel
	facade   bool      // drive an snvmm.Device (else a core.SPECU)
	serve    bool      // attach a worker pool with Serve(ctx, nproc, 0)

	blocks     int     // working set, written during set-up
	batch      int     // ops per request; 1 = one synchronous Read/Write
	readFrac   float64 // share of requests that read
	zipf       bool    // Zipf(s=1) addresses (else uniform)
	flushEvery int     // requests between Flush calls (0 = never)
	powerEvery int     // requests between PowerOff/PowerOn cycles
	// sampleEvery is the number of requests between EncryptedFraction
	// samples, taken outside the timed requests.
	sampleEvery int
}

// workloads is the benchmark's fixed set. BENCHMARK.json repeats each why.
var workloads = []*workload{
	{
		name: "p8-parallel-mix",
		why: "Paper's 8x8/16-PoE device via snvmm.Device, served: 64-op uniform batches, 75% ReadBatch, " +
			"two block crypts per op; crypt kernels, batch scheduler and pool do the work",
		geom: 8, mode: core.Parallel, facade: true, serve: true,
		blocks: 2048, batch: 64, readFrac: 0.75,
		powerEvery: 40, sampleEvery: 10,
	},
	{
		name: "p8-serial-hot",
		why: "Serial 8x8 device, single synchronous ops on Zipf(1) addresses, 95% reads, Flush every 2000, " +
			"power cycle every 20000: hit path, Serial policy and power-off flush; no pool or batch code",
		geom: 8, mode: core.Serial, facade: true,
		blocks: 4096, batch: 1, readFrac: 0.95, zipf: true,
		flushEvery: 2000, powerEvery: 20000, sampleEvery: 100,
	},
	{
		name: "s16-parallel-mix",
		why: "16x16 device (37-PoE lattice placement, MaxNodes 1) on a served core.SPECU, same mix over 512 blocks: " +
			"B&B placement and >64-cell characterization in set-up, one crossbar per block",
		geom: 16, maxNodes: 1, mode: core.Parallel, serve: true,
		blocks: 512, batch: 64, readFrac: 0.75,
		powerEvery: 20, sampleEvery: 10,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// params returns the engine parameters of the workload's device: the
// paper's 8x8 configuration, or the lattice-slack spec of a larger square
// crossbar.
func (w *workload) params(seed int64) (core.Params, error) {
	if w.geom == 8 {
		p := core.DefaultParams()
		p.Xbar.Seed = seed
		return p, nil
	}
	spec, err := poe.ScaledSpec(w.geom, w.geom)
	if err != nil {
		return core.Params{}, err
	}
	spec.Cfg.Seed = seed
	return core.Params{Xbar: spec.Cfg, SecuritySlack: spec.S, MaxNodes: w.maxNodes}, nil
}

// window is the number of requests between two throughput samples.
func (w *workload) window() int {
	if w.flushEvery > 0 {
		return w.flushEvery
	}
	return w.powerEvery
}

// target is the device surface the request loop drives. snvmm.Device
// provides it directly; a bare core.SPECU needs its key and flush adapted.
type target interface {
	Read(addr uint64) ([]byte, error)
	Write(addr uint64, data []byte) error
	ReadBatch(ctx context.Context, addrs []uint64) []core.ReadResult
	WriteBatch(ctx context.Context, ops []core.WriteOp) []error
	Flush() error
	PowerOff() error
	PowerOn() error
	Steal(addr uint64) ([]byte, error)
	EncryptedFraction() float64
}

type specuTarget struct {
	*core.SPECU
	key prng.Key
}

func (s specuTarget) PowerOn() error { return s.SPECU.PowerOn(s.key) }
func (s specuTarget) Flush() error   { return s.EncryptPending() }

// setup is a powered, filled device ready for the timed requests.
type setup struct {
	tgt       target
	gen       *gen
	placement []xbar.Cell // the PoE placement the device solved
	seconds   float64     // engine, placement, characterization and fill
	stop      func()
}

func (s *setup) close() { s.stop() }

// setUp builds the workload's device and writes its working set, timing
// all of it. Every written block is recorded in chk's model.
func setUp(w *workload, seed int64, chk *checker) (*setup, error) {
	g := newGen(w, seed)
	key := g.key()
	fill := g.fill()
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	var tgt target
	var placement []xbar.Cell
	stop := cancel
	if w.facade {
		dev, err := snvmm.Open(snvmm.Options{Mode: w.mode, Seed: seed, SecuritySlack: -1})
		if err != nil {
			cancel()
			return nil, err
		}
		if err := dev.PowerOn(); err != nil {
			cancel()
			return nil, err
		}
		if w.serve {
			if err := dev.Serve(ctx, runtime.NumCPU(), 0); err != nil {
				cancel()
				return nil, err
			}
			stop = func() { dev.StopServing(); cancel() }
		}
		tgt, placement = dev, dev.PlacementCells()
	} else {
		p, err := w.params(seed)
		if err != nil {
			cancel()
			return nil, err
		}
		eng, err := core.NewEngine(p)
		if err != nil {
			cancel()
			return nil, err
		}
		su := core.NewSPECU(eng, w.mode)
		if err := su.PowerOn(key); err != nil {
			cancel()
			return nil, err
		}
		if w.serve {
			if err := su.Serve(ctx, runtime.NumCPU(), 0); err != nil {
				cancel()
				return nil, err
			}
			stop = func() { su.Close(); cancel() }
		}
		tgt, placement = specuTarget{SPECU: su, key: key}, eng.Placement
	}
	for lo := 0; lo < len(fill); lo += 64 {
		ops := fill[lo:min(lo+64, len(fill))]
		for i, err := range tgt.WriteBatch(ctx, ops) {
			chk.wrote(ops[i].Addr, ops[i].Data, err)
		}
	}
	secs := time.Since(start).Seconds()
	return &setup{tgt: tgt, gen: g, placement: placement, seconds: secs, stop: stop}, nil
}

// childSetups times n further set-ups, each in a fresh process so that
// the process-wide calibration cache starts cold as it does for a user.
func childSetups(w *workload, seed int64, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-setup-only", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child output %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}
