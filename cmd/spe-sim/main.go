// Command spe-sim regenerates every table and figure of the paper's
// evaluation. Each experiment prints the rows/series the paper reports,
// alongside the paper's published values where applicable.
//
// Usage:
//
//	spe-sim -exp list
//	spe-sim -exp fig7 [-insts 2000000]
//	spe-sim -exp table2 [-full] [-seqs 10 -bits 20000]
//	spe-sim -exp all
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"snvmm/internal/attacks"
	"snvmm/internal/circuit"
	"snvmm/internal/core"
	"snvmm/internal/device"
	"snvmm/internal/linalg"
	"snvmm/internal/nist"
	"snvmm/internal/poe"
	"snvmm/internal/prng"
	"snvmm/internal/secure"
	"snvmm/internal/sim"
	"snvmm/internal/telemetry"
	"snvmm/internal/telemetry/slo"
	ctrace "snvmm/internal/telemetry/trace"
	"snvmm/internal/trace"
	"snvmm/internal/xbar"
)

var (
	expFlag     = flag.String("exp", "list", "experiment to run (list | all | fig2 | fig4 | fig5 | fig6 | montecarlo | table1 | table2 | bruteforce | coldboot | fig7 | fig8 | table3 | poesweep | timersweep | wearlevel | nvcache | concurrency | batchsweep | sizewall | redteam)")
	fullFlag    = flag.Bool("full", false, "run at paper scale (slow)")
	instFlag    = flag.Int64("insts", 1_000_000, "instructions per workload for fig7/fig8/table3")
	seqsFlag    = flag.Int("seqs", 10, "sequences per data set for table2")
	bitsFlag    = flag.Int("bits", 20000, "bits per sequence for table2")
	seedFlag    = flag.Int64("seed", 1, "master seed")
	workerFlag  = flag.Int("workers", 1, "goroutines for the fig7/fig8/table3 sweep and the montecarlo sampler (>1 fans independent runs out in parallel)")
	precharFlag = flag.Bool("precharacterize", false, "run the full-device SPECU characterization eagerly at engine power-on (WarmAll across all PoEs) before the experiment")
	cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memProfile  = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	telAddr     = flag.String("telemetry-addr", "", "serve the live introspection endpoint (/metrics, /spans, /trace, /debug/pprof) on this TCP address (e.g. 127.0.0.1:0); empty disables telemetry")
	telHold     = flag.Duration("telemetry-hold", 0, "keep the telemetry endpoint alive this long after the experiment finishes (lets scrapers catch the final state)")
	traceOut    = flag.String("trace-out", "", "write the causal trace of the run as Chrome trace-event JSON (load in Perfetto) to this file; also enables tracing without -telemetry-addr")
	traceBuf    = flag.Int("trace-buf", ctrace.DefaultRingSize, "causal-trace ring capacity in spans (rounded up to a power of two; oldest spans overwritten)")
	verboseFlag = flag.Bool("v", false, "print per-simulation progress during sweeps")
	rtFlag      = flag.String("redteam", "", "run an adversarial scenario and emit a JSON verdict (sidechannel | crash | all); exits nonzero if a defense fails")
	rtScript    = flag.String("redteam-script", "", "workload script driving the redteam exposure measurement (default: built-in crash schedule)")
	rowsFlag    = flag.Int("rows", 24, "crossbar rows for the sizewall experiment")
	colsFlag    = flag.Int("cols", 24, "crossbar cols for the sizewall experiment")
	batchFlag   = flag.Int("batch-size", 64, "ops per batch for the batchsweep experiment")
	jsonFlag    = flag.Bool("json", false, "emit the sizewall/batchsweep results as one JSON object on stdout (machine-comparable across runs)")
)

// telReg is non-nil when -telemetry-addr is set; a nil registry is inert,
// so experiment code passes it around unconditionally. The same discipline
// holds for the causal tracer (non-nil when -trace-out or -telemetry-addr
// is set) and the SLO engine (non-nil alongside telReg).
var (
	telReg *telemetry.Registry
	tracer *ctrace.Tracer
	sloEng *slo.Engine
)

// sloObjectives are the default service objectives of the simulated data
// path: every op class should complete in 10 ms with at most 0.1% of ops
// over target, judged on a 10 s rolling window.
func sloObjectives() []slo.Objective {
	objs := make([]slo.Objective, 0, 4)
	for _, class := range []string{"read", "write", "encrypt", "decrypt"} {
		objs = append(objs, slo.Objective{
			Class:      class,
			TargetNs:   10 * time.Millisecond.Nanoseconds(),
			BudgetFrac: 1e-3,
			Window:     10 * time.Second,
		})
	}
	return objs
}

// writeTraceOut flushes the causal trace ring to -trace-out as Chrome
// trace-event JSON.
func writeTraceOut() {
	f, err := os.Create(*traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
		return
	}
	defer f.Close()
	if err := tracer.WriteChrome(f, tracer.Cap()); err != nil {
		fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
		return
	}
	fmt.Printf("trace: wrote %s (load at https://ui.perfetto.dev)\n", *traceOut)
}

type experiment struct {
	name string
	desc string
	run  func() error
}

func main() {
	flag.Parse()
	if *traceOut != "" || *telAddr != "" {
		tracer = ctrace.New(*traceBuf)
		xbar.SetTracer(tracer)
	}
	if *telAddr != "" {
		telReg = telemetry.New()
		telReg.PublishExpvar("snvmm")
		xbar.SetTelemetry(telReg)
		linalg.SetTelemetry(telReg)
		circuit.SetTelemetry(telReg)
		sloEng = slo.New(telReg, sloObjectives()...)
		telReg.OnSnapshot(sloEng.Refresh)
		ln, err := net.Listen("tcp", *telAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry: listening on %s\n", ln.Addr())
		mux := http.NewServeMux()
		mux.Handle("/", telemetry.Handler(telReg))
		mux.Handle("/trace", tracer.Handler())
		go http.Serve(ln, mux) //nolint:errcheck // best-effort introspection server
		if *telHold > 0 {
			defer time.Sleep(*telHold)
		}
	}
	// Registered after the hold defer so the file is written first (LIFO):
	// a scraper watching the hold window can read both endpoints while the
	// exported file already sits on disk.
	if *traceOut != "" {
		defer writeTraceOut()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}
	exps := []experiment{
		{"fig2", "4x4 crossbar encrypt/decrypt walk-through, wrong-order failure", fig2},
		{"fig4", "polyomino voltage map for a 1 V pulse on the 8x8 crossbar", fig4},
		{"fig5", "single-cell hysteresis: encrypt vs calibrated decrypt pulse", fig5},
		{"montecarlo", "±5% wire variation: polyomino shape stability", montecarlo},
		{"table1", "ILP PoE placement for the 8x8 crossbar", table1},
		{"fig6", "polyomino coverage vs number of PoEs", fig6},
		{"table2", "NIST randomness suite over the nine SPE data sets", table2},
		{"bruteforce", "Section 6.2.1 attack cost model", bruteforce},
		{"coldboot", "Section 6.4 cold-boot window", coldboot},
		{"fig7", "performance overhead per workload and scheme", fig7},
		{"fig8", "% of memory kept encrypted per workload and scheme", fig8},
		{"table3", "scheme comparison summary", table3},
		{"poesweep", "ablation: NIST failures vs number of PoEs", poesweep},
		{"timersweep", "ablation: SPE-serial re-encryption timer trade-off", timersweep},
		{"wearlevel", "extension: start-gap defense against endurance attacks", wearlevelExp},
		{"nvcache", "future work: SPE-protected non-volatile cache sweep", nvcacheExp},
		{"concurrency", "sharded SPECU pipeline: sequential vs served throughput + shadow verification", concurrency},
		{"batchsweep", "adaptive batch scheduler: batch ops/s at workers 1/2/4/8 and -batch-size", batchsweep},
		{"sizewall", "scaled-array characterization: full precharacterization + scaled Table 1 at -rows x -cols", sizewall},
		{"redteam", "adversarial harness: side-channel distinguisher + crash injection (JSON verdict)", func() error { return runRedteam("all", *rtScript) }},
	}
	if *rtFlag != "" {
		if err := runRedteam(*rtFlag, *rtScript); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	switch *expFlag {
	case "list":
		fmt.Println("available experiments:")
		for _, e := range exps {
			fmt.Printf("  %-11s %s\n", e.name, e.desc)
		}
		return
	case "all":
		for _, e := range exps {
			fmt.Printf("==== %s: %s ====\n", e.name, e.desc)
			if err := e.run(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
				os.Exit(1)
			}
			fmt.Println()
		}
		return
	default:
		for _, e := range exps {
			if e.name == *expFlag {
				if err := e.run(); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				return
			}
		}
		fmt.Fprintf(os.Stderr, "unknown experiment %q (try -exp list)\n", *expFlag)
		os.Exit(2)
	}
}

// defaultEngine builds the paper's 8x8/16-PoE engine once.
var engCache *core.Engine

func engine() (*core.Engine, error) {
	if engCache != nil {
		return engCache, nil
	}
	e, err := core.NewEngine(core.DefaultParams())
	if err != nil {
		return nil, err
	}
	if *precharFlag {
		start := time.Now()
		if err := e.Precharacterize(context.Background(), *workerFlag); err != nil {
			return nil, err
		}
		fmt.Printf("precharacterized %d PoE records in %v (workers=%d)\n",
			e.P.Xbar.Cells(), time.Since(start).Round(time.Millisecond), *workerFlag)
	}
	engCache = e
	return e, nil
}

// fig2 replays the Fig. 2 walk-through on a 4x4 crossbar.
func fig2() error {
	cfg := xbar.DefaultConfig()
	cfg.Rows, cfg.Cols = 4, 4
	cfg.VertReach, cfg.HorizReach = 2, 1
	res, err := poe.Solve(poe.Spec{Cfg: cfg, S: 10, MaxNodes: 50000})
	if err != nil {
		return err
	}
	params := core.DefaultParams()
	params.Xbar = cfg
	params.PoEs = res.PoEs
	eng, err := core.NewEngine(params)
	if err != nil {
		return err
	}
	ciph, err := core.NewCipher(eng, *seedFlag)
	if err != nil {
		return err
	}
	key := prng.NewKey(0x2B5, 0x1A7) // the "10-bit key" spirit: small seeds
	pt := []byte{0xD8, 0x6E, 0xB9, 0x6E}
	fmt.Printf("PoEs (%d): %v\n", len(res.PoEs), res.PoEs)
	fmt.Printf("plaintext : %08b\n", pt)
	ct, err := ciph.Encrypt(key, pt)
	if err != nil {
		return err
	}
	fmt.Printf("ciphertext: %08b\n", ct)
	back, err := ciph.Decrypt(key, ct)
	if err != nil {
		return err
	}
	fmt.Printf("decrypted : %08b  (match=%v)\n", back, string(back) == string(pt))
	// Fig. 2b: decrypting with the PoEs in the *same* order fails.
	sched := prng.DeriveSchedule(key, len(res.PoEs), device.NumPulses)
	xb2, err := xbar.New(cfg)
	if err != nil {
		return err
	}
	cal2 := xbar.Calibrate(xb2)
	if err := xb2.WriteBlock(ct); err != nil {
		return err
	}
	for step := 0; step < len(sched.Order); step++ { // wrong: forward order
		p := res.PoEs[sched.Order[step]]
		if err := xb2.ApplyPulse(cal2, p, xbar.InverseClass(sched.Classes[step])); err != nil {
			return err
		}
	}
	wrong := xb2.ReadBlock()
	fmt.Printf("same-order: %08b  (match=%v)  <- Fig. 2b: wrong PoE order fails\n",
		wrong, string(wrong) == string(pt))
	return nil
}

func fig4() error {
	xb, err := xbar.New(xbar.DefaultConfig())
	if err != nil {
		return err
	}
	poECell := xbar.Cell{Row: 4, Col: 3}
	m, err := xb.VoltageMap(poECell)
	if err != nil {
		return err
	}
	vt := xbar.DefaultConfig().Device.VtOff
	fmt.Printf("PoE at (%d,%d); drift threshold Vt = %.2f V\n", poECell.Row, poECell.Col, vt)
	fmt.Println("|V| across each cell (volts); * = in polyomino (>= Vt), P = PoE:")
	for r := 0; r < 8; r++ {
		var row []string
		for c := 0; c < 8; c++ {
			v := m[r*8+c]
			mark := " "
			if v >= vt {
				mark = "*"
			}
			if (xbar.Cell{Row: r, Col: c}) == poECell {
				mark = "P"
			}
			row = append(row, fmt.Sprintf("%5.2f%s", v, mark))
		}
		fmt.Println(strings.Join(row, " "))
	}
	fmt.Println("paper (Fig. 4): 1 V at the PoE, 0.76-0.99 V across the polyomino,")
	fmt.Println("sub-threshold elsewhere; our cross-shaped region reflects the same")
	fmt.Println("drive/keeper topology solved by nodal analysis.")
	return nil
}

func fig5() error {
	p := device.DefaultParams()
	enc := device.Pulse{Voltage: 1, Width: 0.071e-6}
	x0 := device.LevelCenter(1) // logic 10
	x1 := p.StateAfter(x0, enc)
	c := device.NewCell(p)
	c.X = x1
	decW, err := p.CalibrateDecryptWidth(x0, enc, 1e-9)
	if err != nil {
		return err
	}
	fmt.Printf("start: logic 10 (level 1), R = %.1f kOhm\n", (p.ROn+(p.ROff-p.ROn)*x0)/1e3)
	fmt.Printf("encrypt pulse: +%.0f V, %.3f us -> level %d (logic %02b), R = %.1f kOhm\n",
		enc.Voltage, enc.Width*1e6, device.QuantizeLevel(x1), device.LevelBits(device.QuantizeLevel(x1)),
		c.Resistance()/1e3)
	fmt.Printf("calibrated decrypt pulse: -1 V, %.3f us (paper: 0.015 us)\n", decW*1e6)
	x2 := p.StateAfter(x1, device.Pulse{Voltage: -1, Width: decW})
	fmt.Printf("after decrypt: level %d (logic %02b)  [paper Fig. 5: 172 kOhm / hysteresis]\n",
		device.QuantizeLevel(x2), device.LevelBits(device.QuantizeLevel(x2)))
	lib, err := device.BuildPulseLibrary(p)
	if err != nil {
		return err
	}
	fmt.Printf("pulse library: %d pulses; +1V widths %.3f-%.3f us, decrypt/encrypt width ratio %.2f\n",
		len(lib), lib[0].Enc.Width*1e6, lib[device.NumWidths-1].Enc.Width*1e6,
		lib[0].Dec.Width/lib[0].Enc.Width)
	return nil
}

func montecarlo() error {
	cfg := xbar.DefaultConfig()
	samples := 100
	if *fullFlag {
		samples = 1000
	}
	wire, err := xbar.MonteCarloShape(cfg, xbar.Cell{Row: 4, Col: 3}, samples, 0.05, 0, *seedFlag, *workerFlag)
	if err != nil {
		return err
	}
	fmt.Printf("±5%% wire resistance, %d samples: shape changed in %d (paper: 0), max |dV| drift %.4f V\n",
		wire.Samples, wire.ShapeChanged, wire.MaxVoltDelta)
	macro, err := xbar.MonteCarloShape(cfg, xbar.Cell{Row: 4, Col: 3}, samples, 0.05, 0.8, *seedFlag+1, *workerFlag)
	if err != nil {
		return err
	}
	fmt.Printf("macro device variation (±80%% R bounds): shape changed in %d/%d, max |dV| drift %.4f V\n",
		macro.ShapeChanged, macro.Samples, macro.MaxVoltDelta)
	return nil
}

func table1() error {
	cfg := xbar.DefaultConfig()
	for _, s := range []int{0, 32, 48, 56} {
		res, err := poe.Solve(poe.Spec{Cfg: cfg, S: s, MaxNodes: 100000, Telemetry: telReg, Tracer: tracer})
		if err != nil {
			fmt.Printf("S=%2d: %v\n", s, err)
			continue
		}
		st := poe.StatsOf(cfg, cfg.PaperShape, res.PoEs)
		fmt.Printf("S=%2d: %2d PoEs (optimal=%v)  single-covered=%2d  overlapped=%2d  total-coverage=%d\n",
			s, len(res.PoEs), res.Optimal, st.Single, st.Overlapped, st.TotalCover)
	}
	fmt.Println("paper: 16 PoEs secure the 8x8 crossbar (we reach 16 at S=56, the")
	fmt.Println("security-first operating point; see EXPERIMENTS.md)")
	return nil
}

func fig6() error {
	cfg := xbar.DefaultConfig()
	fmt.Println("PoEs  overlapped  single  uncovered   (8x8 crossbar, Table 1 shape)")
	for k := 10; k <= 17; k++ {
		_, st, err := poe.BestPlacement(cfg, nil, k, 200)
		if err != nil {
			return err
		}
		fmt.Printf("%4d  %9d  %6d  %9d\n", k, st.Overlapped, st.Single, st.Uncovered)
	}
	fmt.Println("paper (Fig. 6): overlapped coverage grows with PoE count; cells")
	fmt.Println("covered by a single polyomino are the known-plaintext vulnerability.")
	return nil
}

func table2() error {
	eng, err := engine()
	if err != nil {
		return err
	}
	spec := nist.DataSetSpec{Sequences: *seqsFlag, SeqBits: *bitsFlag, Seed: *seedFlag}
	if *fullFlag {
		spec = nist.PaperSpec()
	}
	allowed := nist.MaxAllowedFailures(spec.Sequences)
	fmt.Printf("%d sequences x %d bits per data set; allowed failures per test: %d\n",
		spec.Sequences, spec.SeqBits, allowed)
	b := nist.NewBuilder(eng)
	fmt.Printf("%-10s", "Test")
	for _, ds := range nist.AllDataSets {
		fmt.Printf(" %12s", ds)
	}
	fmt.Println()
	results := map[nist.DataSetName]nist.BatchResult{}
	for _, ds := range nist.AllDataSets {
		seqs, err := b.Build(ds, spec)
		if err != nil {
			return fmt.Errorf("%s: %w", ds, err)
		}
		results[ds] = nist.RunBatch(seqs)
	}
	worst := 0
	for _, test := range nist.TestNames {
		fmt.Printf("%-10s", test)
		for _, ds := range nist.AllDataSets {
			br := results[ds]
			f := br.Failures[test]
			if f > worst {
				worst = f
			}
			na := ""
			if br.Inapplicable[test] == br.Sequences {
				na = "*"
			}
			fmt.Printf(" %11d%1s", f, na)
		}
		fmt.Println()
	}
	fmt.Printf("(* = test not applicable at this sequence length)\n")
	if spec.Sequences >= 30 {
		fmt.Printf("%-10s", "uniform")
		for _, ds := range nist.AllDataSets {
			worstU := 1.0
			for _, test := range nist.TestNames {
				if u := nist.PValueUniformity(results[ds].PValues[test]); u < worstU {
					worstU = u
				}
			}
			fmt.Printf(" %12.4f", worstU)
		}
		fmt.Println("\n(second-level p-value uniformity; SP 800-22 requires >= 0.0001)")
	}
	verdict := "PASS"
	if worst > allowed {
		verdict = "FAIL"
	}
	fmt.Printf("worst cell: %d failures (allowed %d) -> %s; paper: all cells <= 5/150\n",
		worst, allowed, verdict)
	return nil
}

func bruteforce() error {
	fmt.Println(attacks.Describe())
	rep, err := attacks.MeasureAmbiguity(device.DefaultParams(), 200, uint64(*seedFlag))
	if err != nil {
		return err
	}
	fmt.Printf("known-plaintext ambiguity (Section 6.2.2): single-covered cell -> %.1f\n"+
		"consistent pulses; double-covered -> %.0f consistent pulse pairs\n",
		rep.MeanSingle, rep.MeanPair)
	fmt.Println("paper: ~1e32 years brute force, ~1e19 years with known ILP, AES ~1e38;")
	fmt.Println("our first-principles count charges the full 32^16 pulse space (see EXPERIMENTS.md).")
	return nil
}

func coldboot() error {
	cb := attacks.DefaultColdBoot()
	fmt.Printf("per-block encryption time: %.2f us (16 pulses x 100 ns)\n", cb.BlockSeconds()*1e6)
	fmt.Printf("2 Mb cache writeback window: %.2f ms (paper: 32.7 ms for its block count)\n", cb.WindowSeconds()*1e3)
	fmt.Printf("DRAM remanence: %.1f s -> SPE window is %.0fx smaller\n", cb.DRAMRetention, cb.Advantage())
	return nil
}

func runSweep() ([]sim.Row, []sim.SchemeFactory, error) {
	insts := *instFlag
	if *fullFlag {
		insts = 20_000_000
	}
	schemes := sim.Schemes()
	opts := sim.SweepOptions{Telemetry: telReg}
	if *verboseFlag {
		opts.OnProgress = func(done, total int, workload, scheme string) {
			if scheme == "" {
				scheme = "plain"
			}
			fmt.Printf("sweep: %d/%d done (%s/%s)\n", done, total, workload, scheme)
		}
	}
	rows, err := sim.SweepParallelOpts(context.Background(), trace.Profiles(), schemes, insts, *seedFlag, *workerFlag, opts)
	return rows, schemes, err
}

var sweepCache []sim.Row
var sweepSchemes []sim.SchemeFactory

func sweep() ([]sim.Row, []sim.SchemeFactory, error) {
	if sweepCache != nil {
		return sweepCache, sweepSchemes, nil
	}
	rows, schemes, err := runSweep()
	if err == nil {
		sweepCache, sweepSchemes = rows, schemes
	}
	return rows, schemes, err
}

func fig7() error {
	rows, schemes, err := sweep()
	if err != nil {
		return err
	}
	fmt.Printf("%-11s %8s |", "workload", "baseIPC")
	for _, s := range schemes {
		fmt.Printf(" %12s", s.Name)
	}
	fmt.Println("   (% overhead vs unencrypted)")
	for _, r := range rows {
		fmt.Printf("%-11s %8.3f |", r.Workload, r.BaseIPC)
		for _, s := range schemes {
			fmt.Printf(" %11.2f%%", r.OverheadPct[s.Name])
		}
		fmt.Println()
	}
	ov, _ := sim.Averages(rows, schemes)
	fmt.Printf("%-11s %8s |", "AVG", "")
	for _, s := range schemes {
		fmt.Printf(" %11.2f%%", ov[s.Name])
	}
	fmt.Println()
	fmt.Println("paper Fig. 7 averages: AES ~14%, i-NVMM ~1%, SPE-serial ~1.5%, SPE-parallel ~2.9%, stream ~0.4%")
	return nil
}

func fig8() error {
	rows, schemes, err := sweep()
	if err != nil {
		return err
	}
	fmt.Printf("%-11s |", "workload")
	for _, s := range schemes {
		fmt.Printf(" %12s", s.Name)
	}
	fmt.Println("   (time-averaged % of memory encrypted)")
	for _, r := range rows {
		fmt.Printf("%-11s |", r.Workload)
		for _, s := range schemes {
			fmt.Printf(" %11.1f%%", r.EncryptedPct[s.Name])
		}
		fmt.Println()
	}
	_, enc := sim.Averages(rows, schemes)
	fmt.Printf("%-11s |", "AVG")
	for _, s := range schemes {
		fmt.Printf(" %11.1f%%", enc[s.Name])
	}
	fmt.Println()
	fmt.Println("paper Fig. 8: AES 100%, i-NVMM ~27% (73% plaintext), SPE-serial 99.4%, SPE-parallel 100%")
	return nil
}

func table3() error {
	rows, schemes, err := sweep()
	if err != nil {
		return err
	}
	ov, enc := sim.Averages(rows, schemes)
	latency := map[string]string{
		"AES": "80", "i-NVMM": "80", "SPE-serial": "16 (decrypt; 32 incl. re-encrypt)",
		"SPE-parallel": "16 (+16 bank occupancy)", "Stream": "1",
	}
	names := make([]string, 0, len(schemes))
	for _, s := range schemes {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	fmt.Printf("%-13s %-34s %12s %12s %10s\n", "Scheme", "Latency (cycles)", "Overhead", "Encrypted", "Area mm2")
	for _, n := range names {
		fmt.Printf("%-13s %-34s %11.2f%% %11.1f%% %10.2f\n",
			n, latency[n], ov[n], enc[n], areaOf(n))
	}
	fmt.Println("paper Table 3: AES 80cy/14%/100%/2.2; i-NVMM 80cy/1%/73%/5.3;")
	fmt.Println("SPE-serial 32cy/1.5%/99.4%/1.3; SPE-parallel 16cy/2.9%/100%/1.3; stream 1cy/0.4%/100%/6.18")
	return nil
}

func areaOf(name string) float64 {
	return secure.AreaOverheadMM2(name)
}

// concurrency measures the sharded, served SPECU pipeline
// against the sequential path, then rides a functional shadow along a
// timing run so the simulated miss stream exercises (and verifies) the
// concurrent crypto end to end.
func concurrency() error {
	const blocks = 32
	eng, err := engine()
	if err != nil {
		return err
	}
	g := prng.NewGen(uint64(*seedFlag) * 0x9E3779B9)
	key := prng.NewKey(g.Uint64(), g.Uint64())
	payload := make([]byte, core.BlockSize)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	addrs := make([]uint64, blocks)
	ops := make([]core.WriteOp, blocks)
	for i := range addrs {
		addrs[i] = uint64(i) * core.BlockSize
		ops[i] = core.WriteOp{Addr: addrs[i], Data: payload}
	}

	// One timed pass = write all blocks (encrypt) + read them back (decrypt).
	pass := func(workers int) (time.Duration, error) {
		s := core.NewSPECU(eng, core.Parallel)
		s.EnableSLO(sloEng)
		if telReg != nil {
			s.EnableTelemetry(telReg)
		}
		s.EnableTracing(tracer)
		if err := s.PowerOn(key); err != nil {
			return 0, err
		}
		if workers > 0 {
			if err := s.Serve(context.Background(), workers, 0); err != nil {
				return 0, err
			}
			defer s.Close()
		}
		start := time.Now()
		for _, e := range s.WriteBatch(context.Background(), ops) {
			if e != nil {
				return 0, e
			}
		}
		for _, r := range s.ReadBatch(context.Background(), addrs) {
			if r.Err != nil {
				return 0, r.Err
			}
		}
		return time.Since(start), nil
	}

	fmt.Printf("GOMAXPROCS=%d; %d blocks (write+read, %d crossbars each)\n",
		runtime.GOMAXPROCS(0), blocks, eng.CrossbarsPerBlock())
	seq, err := pass(0)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %10v  %8.1f blocks/s\n", "sequential", seq.Round(time.Millisecond),
		float64(2*blocks)/seq.Seconds())
	for _, w := range []int{1, 4, 8} {
		d, err := pass(w)
		if err != nil {
			return err
		}
		fmt.Printf("workers=%-4d %10v  %8.1f blocks/s  (%.2fx vs sequential)\n",
			w, d.Round(time.Millisecond), float64(2*blocks)/d.Seconds(),
			float64(seq)/float64(d))
	}

	// Functional shadow: run a timing simulation and mirror its NVMM block
	// traffic onto a served SPECU, verifying every read round-trips.
	sh, err := sim.NewShadow(context.Background(), sim.ShadowConfig{Workers: 4}, *seedFlag)
	if err != nil {
		return err
	}
	defer sh.Close()
	res, err := sim.RunShadowed(trace.Profiles()[0], secure.NewPlain(), *instFlag, *seedFlag, sh)
	if err != nil {
		return err
	}
	sh.Drain()
	opsN, verified, skipped := sh.Stats()
	fmt.Printf("shadowed %s: %d insts, %d mem reads / %d writes -> %d SPECU ops, %d reads verified, %d capped\n",
		res.Workload, res.Stats.Instructions, res.MemReads, res.MemWrites, opsN, verified, skipped)
	if err := sh.Err(); err != nil {
		return err
	}
	fmt.Println("shadow verification: all reads matched the model (PASS)")
	return nil
}

// heapWatcher samples runtime.MemStats in the background and records the
// HeapAlloc high-water mark, so size-wall runs report peak working-set
// growth (the transient factor + Green-table build) rather than the
// post-GC steady state.
type heapWatcher struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func watchHeap() *heapWatcher {
	w := &heapWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			old := w.peak.Load()
			if ms.HeapAlloc <= old || w.peak.CompareAndSwap(old, ms.HeapAlloc) {
				return
			}
		}
	}
	sample()
	go func() {
		defer close(w.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sample()
			case <-w.stop:
				sample()
				return
			}
		}
	}()
	return w
}

// Peak stops the watcher and returns the observed HeapAlloc high-water mark.
func (w *heapWatcher) Peak() uint64 {
	close(w.stop)
	<-w.done
	return w.peak.Load()
}

// sizewallRun is one cold-characterization measurement of the sizewall
// experiment, serialized under -json.
type sizewallRun struct {
	Label            string  `json:"label"`
	TruncationRadius int     `json:"truncation_radius,omitempty"`
	ElapsedNS        int64   `json:"elapsed_ns"`
	MSPerPoE         float64 `json:"ms_per_poe"`
	CellsVisited     int64   `json:"cells_visited"`
	CellsSkipped     int64   `json:"cells_skipped"`
	PeakHeapBytes    uint64  `json:"peak_heap_bytes"`
	Backend          string  `json:"backend"`
	NDDepth          int64   `json:"nd_depth,omitempty"`
	TableEntries     int64   `json:"table_entries,omitempty"`
	TableDense       int64   `json:"table_entries_dense,omitempty"`
}

// sizewallReport is the -json document of the sizewall experiment.
type sizewallReport struct {
	Rows         int           `json:"rows"`
	Cols         int           `json:"cols"`
	Cells        int           `json:"cells"`
	Path         string        `json:"path"`
	ScaledSlack  int           `json:"scaled_slack,omitempty"`
	SlackDensity float64       `json:"slack_density,omitempty"`
	ScaledErr    string        `json:"scaled_error,omitempty"`
	Runs         []sizewallRun `json:"runs"`
}

// sizewall demonstrates that characterization and placement now scale past
// the paper's 8x8: it derives the scaled Table 1 problem at -rows x -cols,
// then cold-characterizes the full device through whichever path its
// geometry selects — the locality-truncated sketch above 64 cells,
// hierarchical above ~1024 unknowns — and reports the path the backend
// counters saw, the truncation telemetry and the heap high-water mark,
// plus a radius-capped re-run on the sketch path to show the knob.
// With -json the same numbers come out as one machine-comparable object.
func sizewall() error {
	cfg := xbar.DefaultConfig()
	cfg.Rows, cfg.Cols = *rowsFlag, *colsFlag
	if err := cfg.Validate(); err != nil {
		return err
	}
	rep := sizewallReport{Rows: cfg.Rows, Cols: cfg.Cols, Cells: cfg.Cells()}
	human := !*jsonFlag
	if human {
		fmt.Printf("%dx%d crossbar (%d cells, %d PoEs to characterize)\n",
			cfg.Rows, cfg.Cols, cfg.Cells(), cfg.Cells())
	}

	spec, err := poe.ScaledSpec(cfg.Rows, cfg.Cols)
	if err != nil {
		rep.ScaledErr = err.Error()
		if human {
			fmt.Printf("scaled Table 1: %v\n", err)
		}
	} else {
		rep.ScaledSlack = spec.S
		rep.SlackDensity = float64(spec.S) / float64(cfg.Cells())
		if human {
			fmt.Printf("scaled Table 1: slack S=%d (%.1f%% of cells double-covered by the\n"+
				"lattice construction; the paper's 87.5%% at 8x8 is a boundary-clipping artifact)\n",
				spec.S, 100*rep.SlackDensity)
		}
	}

	// Attach a local registry when none is being served, so the truncation
	// counters and backend-selection telemetry are readable either way.
	reg := telReg
	if reg == nil {
		reg = telemetry.New()
		xbar.SetTelemetry(reg)
		circuit.SetTelemetry(reg)
		defer xbar.SetTelemetry(nil)
		defer circuit.SetTelemetry(nil)
	}
	warm := func(c xbar.Config, label string) error {
		xb, err := xbar.New(c)
		if err != nil {
			return err
		}
		visited0 := reg.Counter("xbar.cal.cells_visited").Load()
		skipped0 := reg.Counter("xbar.cal.cells_skipped").Load()
		dense0 := reg.Counter("circuit.sketch.backend_dense").Load()
		hier0 := reg.Counter("circuit.sketch.backend_hier").Load()
		runtime.GC()
		hw := watchHeap()
		start := time.Now()
		if err := xbar.Calibrate(xb).WarmAll(context.Background(), *workerFlag); err != nil {
			return err
		}
		el := time.Since(start)
		run := sizewallRun{
			Label:            label,
			TruncationRadius: c.TruncationRadius,
			ElapsedNS:        el.Nanoseconds(),
			MSPerPoE:         float64(el.Nanoseconds()) / 1e6 / float64(c.Cells()),
			CellsVisited:     reg.Counter("xbar.cal.cells_visited").Load() - visited0,
			CellsSkipped:     reg.Counter("xbar.cal.cells_skipped").Load() - skipped0,
			PeakHeapBytes:    hw.Peak(),
			Backend:          "dense-per-poe",
		}
		switch {
		case reg.Counter("circuit.sketch.backend_hier").Load() > hier0:
			run.Backend = "hier"
			run.NDDepth = reg.Gauge("circuit.sketch.nd_depth").Load()
			run.TableEntries = reg.Gauge("circuit.sketch.table_entries").Load()
			run.TableDense = reg.Gauge("circuit.sketch.table_entries_dense").Load()
		case reg.Counter("circuit.sketch.backend_dense").Load() > dense0:
			run.Backend = "dense"
		}
		rep.Runs = append(rep.Runs, run)
		if human {
			fmt.Printf("%-22s %10v  (%.2f ms/PoE; sweep visited %d cells, skipped %d;\n"+
				"%22s backend %s, peak heap %.1f MB)\n",
				label, el.Round(time.Millisecond), run.MSPerPoE,
				run.CellsVisited, run.CellsSkipped, "", run.Backend,
				float64(run.PeakHeapBytes)/(1<<20))
			if run.Backend == "hier" {
				fmt.Printf("%22s nd depth %d, Green-table fill %d/%d entries (%.1f%% of dense)\n",
					"", run.NDDepth, run.TableEntries, run.TableDense,
					100*float64(run.TableEntries)/float64(max(run.TableDense, 1)))
			}
		}
		return nil
	}
	if err := warm(cfg, "full precharacterize"); err != nil {
		return err
	}
	rep.Path = "sketch"
	mode := "sketch (one shared factorization + Green tables per device)"
	if rep.Runs[0].Backend == "dense-per-poe" {
		rep.Path = "dense"
		mode = "dense (legacy per-PoE factorization)"
	}
	if human {
		fmt.Printf("path: %s\n", mode)
	}
	if rep.Path == "sketch" {
		capped := cfg
		capped.TruncationRadius = 5
		if err := warm(capped, "radius-capped (R=5)"); err != nil {
			return err
		}
		if human {
			fmt.Println("(radius cap trades unmeasured far-field weights for sweep time; the")
			fmt.Println("default tolerance keeps fixed-point deviations bit-identical instead)")
		}
	}
	if *jsonFlag {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	return nil
}

// batchsweepRun is one worker-count measurement of the batchsweep
// experiment, serialized under -json.
type batchsweepRun struct {
	Workers      int     `json:"workers"`
	WriteOpsPerS float64 `json:"write_ops_per_s"`
	ReadOpsPerS  float64 `json:"read_ops_per_s"`
	CryptOpsPerS float64 `json:"crypt_ops_per_s"`
	// SpeedupVsW1 is the read-path throughput ratio against the workers=1
	// run of the same sweep; 0 on the workers=1 row itself.
	SpeedupVsW1 float64 `json:"speedup_vs_w1,omitempty"`
}

// batchsweepReport is the -json document of the batchsweep experiment —
// the soak-run feed for the future spe-serve SLO dashboard.
type batchsweepReport struct {
	BatchSize  int             `json:"batch_size"`
	Passes     int             `json:"passes"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Runs       []batchsweepRun `json:"runs"`
}

// batchsweep measures the shard-coalesced batch scheduler end to end:
// steady-state WriteBatch, ReadBatch and DecryptBatch+EncryptBatch
// throughput over a -batch-size working set at 1, 2, 4 and 8 workers.
// Parallel mode keeps every phase in its encrypted steady state (reads
// read through to the plaintext and rewind to the ciphertext, overwrites
// reprogram ciphertext), so ops/s is comparable across phases and worker
// counts. On a one-CPU host sched.Workers clamps every row to one
// worker, so every row measures the inline path — run on a multi-core host
// for real scaling numbers.
func batchsweep() error {
	eng, err := engine()
	if err != nil {
		return err
	}
	batch := *batchFlag
	if batch < 1 {
		return fmt.Errorf("batchsweep: -batch-size must be >= 1 (got %d)", batch)
	}
	const passes = 6
	g := prng.NewGen(uint64(*seedFlag) * 0x9E3779B9)
	key := prng.NewKey(g.Uint64(), g.Uint64())
	payload := make([]byte, core.BlockSize)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	addrs := make([]uint64, batch)
	ops := make([]core.WriteOp, batch)
	for i := range addrs {
		addrs[i] = uint64(i) * core.BlockSize
		ops[i] = core.WriteOp{Addr: addrs[i], Data: payload}
	}

	rep := batchsweepReport{BatchSize: batch, Passes: passes, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	human := !*jsonFlag
	if human {
		fmt.Printf("GOMAXPROCS=%d; batch of %d blocks, %d timed passes per phase\n",
			rep.GOMAXPROCS, batch, passes)
		fmt.Printf("%-10s %14s %14s %14s %10s\n", "workers", "write ops/s", "read ops/s", "crypt ops/s", "read x")
	}
	ctx := context.Background()
	for _, w := range []int{1, 2, 4, 8} {
		s := core.NewSPECU(eng, core.Parallel)
		s.EnableSLO(sloEng)
		if telReg != nil {
			s.EnableTelemetry(telReg)
		}
		s.EnableTracing(tracer)
		if err := s.PowerOn(key); err != nil {
			return err
		}
		if err := s.Serve(ctx, w, 2*batch); err != nil {
			return err
		}
		// Untimed warm pass fabricates the working set.
		for _, e := range s.WriteBatch(ctx, ops) {
			if e != nil {
				s.Close()
				return e
			}
		}
		phase := func(f func() error) (float64, error) {
			start := time.Now()
			for p := 0; p < passes; p++ {
				if err := f(); err != nil {
					return 0, err
				}
			}
			return float64(passes*batch) / time.Since(start).Seconds(), nil
		}
		run := batchsweepRun{Workers: w}
		if run.WriteOpsPerS, err = phase(func() error {
			return errors.Join(s.WriteBatch(ctx, ops)...)
		}); err == nil {
			if run.ReadOpsPerS, err = phase(func() error {
				for _, r := range s.ReadBatch(ctx, addrs) {
					if r.Err != nil {
						return r.Err
					}
				}
				return nil
			}); err == nil {
				run.CryptOpsPerS, err = phase(func() error {
					if e := errors.Join(s.DecryptBatch(ctx, addrs)...); e != nil {
						return e
					}
					return errors.Join(s.EncryptBatch(ctx, addrs)...)
				})
			}
		}
		s.Close()
		if err != nil {
			return err
		}
		if w > 1 && len(rep.Runs) > 0 && rep.Runs[0].ReadOpsPerS > 0 {
			run.SpeedupVsW1 = run.ReadOpsPerS / rep.Runs[0].ReadOpsPerS
		}
		rep.Runs = append(rep.Runs, run)
		if human {
			x := "-"
			if run.SpeedupVsW1 > 0 {
				x = fmt.Sprintf("%.2fx", run.SpeedupVsW1)
			}
			fmt.Printf("%-10d %14.1f %14.1f %14.1f %10s\n",
				w, run.WriteOpsPerS, run.ReadOpsPerS, run.CryptOpsPerS, x)
		}
	}
	if *jsonFlag {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	return nil
}
