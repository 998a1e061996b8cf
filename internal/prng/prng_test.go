package prng

import (
	"bytes"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewKeyMasks(t *testing.T) {
	k := NewKey(^uint64(0), ^uint64(0))
	if k.Address >= 1<<SeedBits || k.Voltage >= 1<<SeedBits {
		t.Errorf("key not masked to %d bits: %+v", SeedBits, k)
	}
}

func TestKeyBytesRoundTrip(t *testing.T) {
	f := func(a, v uint64) bool {
		k := NewKey(a, v)
		k2, err := KeyFromBytes(k.Bytes())
		return err == nil && k2 == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKeyFromBytesLength(t *testing.T) {
	if _, err := KeyFromBytes(make([]byte, 10)); err == nil {
		t.Error("expected length error")
	}
}

func TestKeyBytesLayout(t *testing.T) {
	// Address = all ones, voltage = 0: first 44 bits set, rest clear.
	k := NewKey((1<<SeedBits)-1, 0)
	b := k.Bytes()
	want := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xf0, 0, 0, 0, 0, 0}
	if !bytes.Equal(b, want) {
		t.Errorf("bytes = %x, want %x", b, want)
	}
}

func TestFlipBit(t *testing.T) {
	k := NewKey(0, 0)
	for i := 0; i < KeyBits; i++ {
		f := k.FlipBit(i)
		if f == k {
			t.Errorf("FlipBit(%d) did not change key", i)
		}
		if f.FlipBit(i) != k {
			t.Errorf("FlipBit(%d) not involutive", i)
		}
		// Exactly one bit differs in the byte encoding.
		diff := 0
		kb, fb := k.Bytes(), f.Bytes()
		for j := range kb {
			x := kb[j] ^ fb[j]
			for ; x != 0; x &= x - 1 {
				diff++
			}
		}
		if diff != 1 {
			t.Errorf("FlipBit(%d) changed %d bits", i, diff)
		}
	}
}

func TestFlipBitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewKey(0, 0).FlipBit(KeyBits)
}

func TestGenDeterministic(t *testing.T) {
	g1, g2 := NewGen(42), NewGen(42)
	for i := 0; i < 100; i++ {
		if g1.Uint64() != g2.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestGenSeedSensitivity(t *testing.T) {
	// Adjacent seeds must diverge immediately after warm-up.
	g1, g2 := NewGen(1000), NewGen(1001)
	same := 0
	for i := 0; i < 64; i++ {
		if g1.Uint64() == g2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/64 outputs collide for adjacent seeds", same)
	}
}

func TestGenZeroSeedWorks(t *testing.T) {
	g := NewGen(0)
	a, b := g.Uint64(), g.Uint64()
	if a == 0 && b == 0 {
		t.Error("zero seed produced zero stream")
	}
}

func TestGenBitBalance(t *testing.T) {
	// Monobit sanity: ~50% ones over 64k bits.
	g := NewGen(7)
	bits := make([]uint8, 1<<16)
	g.Bits(bits)
	ones := 0
	for _, b := range bits {
		if b > 1 {
			t.Fatalf("bit value %d", b)
		}
		ones += int(b)
	}
	frac := float64(ones) / float64(len(bits))
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("ones fraction %g too far from 0.5", frac)
	}
}

func TestGenSerialCorrelation(t *testing.T) {
	// Lag-1 bit correlation should be near zero.
	g := NewGen(99)
	bits := make([]uint8, 1<<16)
	g.Bits(bits)
	agree := 0
	for i := 1; i < len(bits); i++ {
		if bits[i] == bits[i-1] {
			agree++
		}
	}
	frac := float64(agree) / float64(len(bits)-1)
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("lag-1 agreement %g too far from 0.5", frac)
	}
}

func TestIntnUniform(t *testing.T) {
	g := NewGen(5)
	const n = 10
	counts := make([]int, n)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := g.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if math.Abs(float64(c)-draws/n) > 500 {
			t.Errorf("value %d drawn %d times, want ~%d", v, c, draws/n)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewGen(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	g := NewGen(11)
	for _, n := range []int{1, 2, 16, 64} {
		p := g.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermVariesWithSeed(t *testing.T) {
	p1 := NewGen(1).Perm(16)
	p2 := NewGen(2).Perm(16)
	same := true
	for i := range p1 {
		if p1[i] != p2[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical permutations")
	}
}

func TestDeriveSchedule(t *testing.T) {
	k := NewKey(123, 456)
	s := DeriveSchedule(k, 16, 32)
	if len(s.Order) != 16 || len(s.Classes) != 16 {
		t.Fatalf("schedule sizes %d/%d", len(s.Order), len(s.Classes))
	}
	seen := make([]bool, 16)
	for _, v := range s.Order {
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("order misses PoE %d", i)
		}
	}
	for _, c := range s.Classes {
		if c < 0 || c >= 32 {
			t.Errorf("class %d out of range", c)
		}
	}
	// Deterministic.
	s2 := DeriveSchedule(k, 16, 32)
	for i := range s.Order {
		if s.Order[i] != s2.Order[i] || s.Classes[i] != s2.Classes[i] {
			t.Fatal("schedule not deterministic")
		}
	}
}

func TestDeriveScheduleKeySeparation(t *testing.T) {
	// Changing only the voltage seed must not change the PoE order, and
	// vice versa (the two PRNG paths of Fig. 1b are independent).
	k := NewKey(77, 88)
	s1 := DeriveSchedule(k, 16, 32)
	s2 := DeriveSchedule(NewKey(77, 999), 16, 32)
	for i := range s1.Order {
		if s1.Order[i] != s2.Order[i] {
			t.Error("voltage seed changed PoE order")
			break
		}
	}
	s3 := DeriveSchedule(NewKey(555, 88), 16, 32)
	for i := range s1.Classes {
		if s1.Classes[i] != s3.Classes[i] {
			t.Error("address seed changed pulse classes")
			break
		}
	}
}

func TestMulmod61(t *testing.T) {
	// Check against big-number identity on selected values.
	cases := [][3]uint64{
		{0, 5, 0},
		{1, m61 - 1, m61 - 1},
		{2, 1 << 60, (1 << 61) % m61},
		{m61 - 1, m61 - 1, 1}, // (-1)*(-1) = 1 mod p
		{m61, m61, 0},
		{m61, 1, 0},
	}
	for _, c := range cases {
		if got := mulmod61(c[0], c[1]); got != c[2] {
			t.Errorf("mulmod61(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

// TestMulmod61Big checks the bits.Mul64 fold against math/big over random
// operands in [0, m61], biased toward the top of the range where the
// conditional subtract fires.
func TestMulmod61Big(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	mod := new(big.Int).SetUint64(m61)
	prod := new(big.Int)
	for i := 0; i < 20000; i++ {
		a, b := rng.Uint64()%(m61+1), rng.Uint64()%(m61+1)
		if i%4 == 0 {
			a, b = m61-a%1024, m61-b%1024
		}
		want := prod.Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, mod)
		if got := mulmod61(a, b); got != want.Uint64() {
			t.Fatalf("mulmod61(%d, %d) = %d, want %d", a, b, got, want.Uint64())
		}
	}
}

// refGen is the coupled LCG as originally specified: a full 128-bit
// product reduced with bits.Rem64 and every update reduced with %. The
// production Gen must reproduce its stream exactly.
type refGen struct{ s1, s2 uint64 }

func newRefGen(seed uint64) *refGen {
	mix := func(x uint64) uint64 {
		x += 0x9E3779B97F4A7C15
		x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
		x = (x ^ x>>27) * 0x94D049BB133111EB
		return x ^ x>>31
	}
	g := &refGen{s1: mix(seed) % m61, s2: mix(seed^0xA5A5A5A55A5A5A5A) % m61}
	if g.s1 == 0 {
		g.s1 = 0x1234567
	}
	if g.s2 == 0 {
		g.s2 = 0x89ABCDE
	}
	for i := 0; i < 16; i++ {
		g.step()
	}
	return g
}

func refMulmod(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return bits.Rem64(hi, lo, m61)
}

func (g *refGen) step() uint64 {
	g.s1 = (refMulmod(a1, g.s1) + c1 + g.s2%1024) % m61
	g.s2 = (refMulmod(a2, g.s2) + c2 + g.s1%1024) % m61
	return g.s1 ^ (g.s2 << 3) ^ (g.s2 >> 7)
}

func (g *refGen) intn(n int) int {
	bound := uint64(n)
	limit := ^uint64(0) - ^uint64(0)%bound
	for {
		v := g.step()<<32 ^ g.step()
		if v < limit {
			return int(v % bound)
		}
	}
}

func refSchedule(k Key, nPoE, numClasses int) Schedule {
	ag, vg := newRefGen(k.Address), newRefGen(k.Voltage)
	s := Schedule{Order: make([]int, nPoE), Classes: make([]int, nPoE)}
	for i := range s.Order {
		s.Order[i] = i
	}
	for i := nPoE - 1; i > 0; i-- {
		j := ag.intn(i + 1)
		s.Order[i], s.Order[j] = s.Order[j], s.Order[i]
	}
	for i := range s.Classes {
		s.Classes[i] = vg.intn(numClasses)
	}
	return s
}

// TestDeriveScheduleIntoMatchesReference derives schedules with one reused
// Schedule over more than 10k keys — every one- and two-bit low-density key
// of Section 6.1 plus random dense keys — and checks each against the
// reference LCG and against DeriveSchedule. The PoE count cycles through
// several sizes, so a reused buffer that is shrunk, regrown or left with
// stale entries would show.
func TestDeriveScheduleIntoMatchesReference(t *testing.T) {
	var keys []Key
	for i := 0; i < KeyBits; i++ {
		keys = append(keys, NewKey(0, 0).FlipBit(i))
		for j := i + 1; j < KeyBits; j++ {
			keys = append(keys, NewKey(0, 0).FlipBit(i).FlipBit(j))
		}
	}
	rng := rand.New(rand.NewSource(88))
	for len(keys) < 10500 {
		keys = append(keys, NewKey(rng.Uint64(), rng.Uint64()))
	}
	keys = append(keys, NewKey(0, 0), NewKey(^uint64(0), ^uint64(0)))
	sizes := []int{16, 37, 1, 16, 9}
	var s Schedule
	for i, k := range keys {
		n := sizes[i%len(sizes)]
		DeriveScheduleInto(&s, k, n, 32)
		ref := refSchedule(k, n, 32)
		pub := DeriveSchedule(k, n, 32)
		if len(s.Order) != n || len(s.Classes) != n {
			t.Fatalf("key %+v: schedule sizes %d/%d, want %d", k, len(s.Order), len(s.Classes), n)
		}
		for j := 0; j < n; j++ {
			if s.Order[j] != ref.Order[j] || s.Classes[j] != ref.Classes[j] ||
				pub.Order[j] != ref.Order[j] || pub.Classes[j] != ref.Classes[j] {
				t.Fatalf("key %+v step %d: into (%d,%d) public (%d,%d) reference (%d,%d)", k, j,
					s.Order[j], s.Classes[j], pub.Order[j], pub.Classes[j], ref.Order[j], ref.Classes[j])
			}
		}
	}
}

func TestDeriveScheduleIntoAllocFree(t *testing.T) {
	var s Schedule
	k := NewKey(0xABC, 0xDEF)
	DeriveScheduleInto(&s, k, 16, 32)
	if allocs := testing.AllocsPerRun(100, func() { DeriveScheduleInto(&s, k, 16, 32) }); allocs != 0 {
		t.Errorf("DeriveScheduleInto on a warm schedule allocates %v/op, want 0", allocs)
	}
}
