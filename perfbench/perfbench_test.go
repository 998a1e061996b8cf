package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func inputs(w *workload, seed int64, n int) []byte {
	g := newGen(w, seed)
	k := g.key()
	out := append([]byte(nil), k.Bytes()...)
	for _, op := range g.fill() {
		out = append(out, op.Data...)
	}
	for i := 0; i < n; i++ {
		out = g.next().encode(out)
	}
	return out
}

// encode appends a byte encoding of r; equal encodings mean equal inputs.
func (r request) encode(dst []byte) []byte {
	dst = append(dst, byte(r.kind), byte(len(r.addrs)), byte(len(r.addrs)>>8))
	for i, a := range r.addrs {
		for j := 0; j < 8; j++ {
			dst = append(dst, byte(a>>(8*j)))
		}
		if r.kind == opWrite {
			dst = append(dst, r.data[i]...)
		}
	}
	return dst
}

func TestSameSeedGeneratesIdenticalInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := inputs(w, 7, 300), inputs(w, 7, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different inputs on two runs", w.name)
		}
		if bytes.Equal(a, inputs(w, 8, 300)) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
	}
}

func TestGeneratedRequestsMatchWorkload(t *testing.T) {
	for _, w := range workloads {
		g := newGen(w, 3)
		reads := 0
		const n = 4000
		for i := 0; i < n; i++ {
			r := g.next()
			if len(r.addrs) != w.batch {
				t.Fatalf("%s: request of %d ops, want %d", w.name, len(r.addrs), w.batch)
			}
			seen := map[uint64]bool{}
			for _, a := range r.addrs {
				if seen[a] || a >= uint64(w.blocks)*64 || a%64 != 0 {
					t.Fatalf("%s: bad or repeated address %#x", w.name, a)
				}
				seen[a] = true
			}
			if r.kind == opRead {
				reads++
			}
		}
		if got := float64(reads) / n; math.Abs(got-w.readFrac) > 0.03 {
			t.Errorf("%s: read share %.3f, want %.2f", w.name, got, w.readFrac)
		}
	}
}

func TestCheckerFlagsCorruptedRead(t *testing.T) {
	c := newChecker(0)
	data := bytes.Repeat([]byte{0xA5}, 64)
	c.wrote(0x40, data, nil)
	c.read(0x40, data, nil)
	if c.failed != 0 {
		t.Fatalf("a correct read was flagged: %v", c.failures)
	}
	bad := append([]byte(nil), data...)
	bad[17] ^= 1
	c.read(0x40, bad, nil)
	if c.failed != 1 {
		t.Fatalf("a corrupted read was not flagged (failed=%d)", c.failed)
	}
	c.stolen(0x40, data, nil)
	if c.failed != 2 {
		t.Fatalf("plaintext after power-off was not flagged (failed=%d)", c.failed)
	}

	inj := newChecker(2)
	inj.wrote(0x40, data, nil)
	inj.read(0x40, data, nil)
	inj.read(0x40, data, nil)
	if inj.failed != 1 || inj.attempted != 3 {
		t.Fatalf("injected corruption: failed=%d attempted=%d, want 1 and 3", inj.failed, inj.attempted)
	}
}

func TestInjectedCorruptionFailsRun(t *testing.T) {
	w := workloadByName("p8-parallel-mix")
	for _, every := range []int{0, 5} {
		chk := newChecker(every)
		s, err := setUp(w, 1, chk)
		if err != nil {
			t.Fatal(err)
		}
		r := newRunner(w, chk)
		r.s = s
		for r.requests < 4 {
			r.step(s.gen.next())
		}
		s.close()
		if (chk.failed > 0) != (every > 0) {
			t.Errorf("inject-corruption %d: %d of %d checks failed", every, chk.failed, chk.attempted)
		}
	}
}

func TestTailPercentileHasTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{1000: 99, 999: 90, 100: 90, 99: 50, 5: 50} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	for n := 20; n <= 5000; n++ {
		q := tailPercentile(n)
		if float64(n)*(100-q)/100 < minBeyond-1e-9 {
			t.Fatalf("n=%d: p%v has fewer than %d samples beyond it", n, q, minBeyond)
		}
		for _, higher := range tailLadder {
			if higher > q && float64(n)*(100-higher)/100 >= minBeyond {
				t.Fatalf("n=%d: picked p%v but p%v also has %d samples beyond it", n, q, higher, minBeyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestParallelEffIsOneOnSerialTrace(t *testing.T) {
	opUs := map[opKind]float64{opRead: 210, opWrite: 330}
	var trace []batchSample
	for i := 1; i <= 20; i++ {
		k := opKind(i % 2)
		trace = append(trace, batchSample{kind: k, ops: i, wallUs: float64(i) * opUs[k]})
	}
	if got := parallelEff(trace, opUs, 1, 2); math.Abs(got-1) > 1e-12 {
		t.Errorf("parallel_eff of a serial trace on one worker = %v, want 1", got)
	}
	if got := parallelEff(trace, opUs, 4, 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("parallel_eff of a serial trace on 2 usable cores = %v, want 0.5", got)
	}
}

// TestBenchmarkJSONMatchesCode holds the repository's BENCHMARK.json and
// the names, units and workload reasons the benchmark prints together.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Why, Unit string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, code %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		list []named
		want map[string]string
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		got := make(map[string]metric, len(c.list))
		for _, m := range c.list {
			got[m.Name] = metric{Unit: m.Unit}
		}
		if err := checkNames(got, c.want); err != nil || len(got) != len(c.list) {
			t.Errorf("%v (%d entries, %d distinct)", err, len(c.list), len(got))
		}
	}
}

func TestSpanSelfTimes(t *testing.T) {
	l := newSpanLog()
	at := func(ms int) time.Time { return l.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := l.add("requests", at(0), at(10), -1)
	l.add("read_batch", at(1), at(4), root)
	l.add("read_batch", at(5), at(9), root)
	got := l.selfTimes()
	if got["requests"] != 3 || got["read_batch"] != 7 {
		t.Errorf("self times %v, want requests 3 ms and read_batch 7 ms", got)
	}
}
