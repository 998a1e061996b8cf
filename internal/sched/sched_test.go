package sched

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// withProcs runs f with GOMAXPROCS and the host CPU count pinned to n.
func withProcs(t *testing.T, n int, f func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	defer PinHostCPUs(n)()
	f()
}

func TestWorkers(t *testing.T) {
	withProcs(t, 4, func() {
		cases := []struct{ req, want int }{
			{-1, 4}, // <= 0 selects the limit
			{0, 4},
			{1, 1},
			{3, 3},
			{4, 4},
			{5, 4},   // clamped to the limit
			{100, 4}, // clamped to the limit
		}
		for _, c := range cases {
			if got := Workers(c.req); got != c.want {
				t.Errorf("Workers(%d) = %d, want %d", c.req, got, c.want)
			}
		}
	})
	withProcs(t, 1, func() {
		for _, req := range []int{-1, 0, 1, 8} {
			if got := Workers(req); got != 1 {
				t.Errorf("limit 1: Workers(%d) = %d, want 1", req, got)
			}
		}
	})
}

// TestLimitTakesSmallest checks that limit is the smallest of GOMAXPROCS
// and the host CPU count, whichever of the two is lower.
func TestLimitTakesSmallest(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	for _, c := range []struct{ procs, cpus, want int }{
		{8, 2, 2}, // GOMAXPROCS raised above the CPUs: they bound it
		{8, 3, 3},
		{2, 6, 2}, // GOMAXPROCS lowered below the CPUs: it bounds them
		{1, 4, 1},
	} {
		runtime.GOMAXPROCS(c.procs)
		restore := PinHostCPUs(c.cpus)
		if got := limit(); got != c.want {
			t.Errorf("GOMAXPROCS %d, %d CPUs: limit() = %d, want %d", c.procs, c.cpus, got, c.want)
		}
		if got := Workers(0); got != c.want {
			t.Errorf("GOMAXPROCS %d, %d CPUs: Workers(0) = %d, want %d", c.procs, c.cpus, got, c.want)
		}
		restore()
	}
	runtime.GOMAXPROCS(8)
	if got, want := limit(), min(8, hostCPUs()); got != want {
		t.Errorf("unpinned: limit() = %d, want min(GOMAXPROCS 8, host CPUs %d) = %d", got, hostCPUs(), want)
	}
	if hostCPUs() > runtime.NumCPU() {
		t.Errorf("host CPUs %d exceed NumCPU %d", hostCPUs(), runtime.NumCPU())
	}
}

func TestQuotaCPUs(t *testing.T) {
	for _, c := range []struct {
		in   string
		cpus int
		ok   bool
	}{
		{"max 100000\n", 0, false}, // no quota
		{"max", 0, false},
		{"100000 100000\n", 1, true},
		{"150000 100000\n", 2, true}, // 1.5 CPUs run two goroutines at once
		{"200000 100000", 2, true},
		{"50000 100000", 1, true}, // below one CPU still runs one
		{"400000 50000", 8, true},
		{"", 0, false},
		{"100000", 0, false},
		{"abc 100000", 0, false},
		{"100000 0", 0, false},
		{"-1 100000", 0, false},
		{"100000 100000 7", 0, false},
	} {
		cpus, ok := quotaCPUs(c.in)
		if cpus != c.cpus || ok != c.ok {
			t.Errorf("quotaCPUs(%q) = %d, %v, want %d, %v", c.in, cpus, ok, c.cpus, c.ok)
		}
	}
}

// TestCPUsUnderQuotaFile reads injected cpu.max files: a quota caps the CPU
// count, "max", a missing file or garbage leave it alone, and a quota above
// the CPU count does not raise it.
func TestCPUsUnderQuotaFile(t *testing.T) {
	dir := t.TempDir()
	for i, c := range []struct {
		contents string // "" = no file
		n, want  int
	}{
		{"", 4, 4},
		{"max 100000\n", 4, 4},
		{"250000 100000\n", 4, 3},
		{"250000 100000\n", 2, 2},
		{"100000 100000\n", 16, 1},
		{"garbage\n", 4, 4},
	} {
		path := filepath.Join(dir, "cpu.max.missing")
		if c.contents != "" {
			path = filepath.Join(dir, "cpu.max."+string(rune('a'+i)))
			if err := os.WriteFile(path, []byte(c.contents), 0o600); err != nil {
				t.Fatal(err)
			}
		}
		if got := cpusUnder(c.n, path); got != c.want {
			t.Errorf("cpusUnder(%d, %q) = %d, want %d", c.n, c.contents, got, c.want)
		}
	}
}

func TestWorkersFor(t *testing.T) {
	withProcs(t, 8, func() {
		cases := []struct{ req, items, want int }{
			{0, 3, 3},   // the limit capped at the item count
			{0, 100, 8}, // more items than cores: full parallelism
			{4, 2, 2},   // fewer items than requested workers
			{4, 0, 4},   // items <= 0 leaves the count uncapped
			{4, -1, 4},
			{100, 50, 8}, // the limit still applies first
			{2, 1, 1},
		}
		for _, c := range cases {
			if got := WorkersFor(c.req, c.items); got != c.want {
				t.Errorf("WorkersFor(%d, %d) = %d, want %d", c.req, c.items, got, c.want)
			}
		}
	})
}
