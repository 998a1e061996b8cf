// Package prng implements the SPECU's keyed pseudorandom sequence generator.
// Following the paper (Section 5.4 and Fig. 1b), the 88-bit secret key
// splits into a 44-bit address seed and a 44-bit voltage seed, each feeding
// a pseudorandom generator whose outputs the LUTs map to PoE addresses and
// pulse selections. The generator is a pair of coupled linear congruential
// generators in the style of Katti–Kavasseri: two 61-bit LCGs whose outputs
// cross-perturb each other's streams, which removes the lattice structure a
// single LCG exposes.
package prng

import (
	"fmt"
	"math/bits"
)

// SeedBits is the width of each PRNG seed (the paper's 44-bit halves).
const SeedBits = 44

// KeyBits is the full SPE key width for an 8x8 crossbar.
const KeyBits = 2 * SeedBits

// Key is the 88-bit SPE secret: two 44-bit seeds.
type Key struct {
	Address uint64 // low 44 bits significant
	Voltage uint64 // low 44 bits significant
}

// NewKey masks the provided words to 44 bits each.
func NewKey(address, voltage uint64) Key {
	const mask = (1 << SeedBits) - 1
	return Key{Address: address & mask, Voltage: voltage & mask}
}

// KeyFromBytes builds a key from an 11-byte (88-bit) big-endian encoding:
// the first 44 bits are the address seed, the last 44 the voltage seed.
func KeyFromBytes(b []byte) (Key, error) {
	if len(b) != KeyBits/8 {
		return Key{}, fmt.Errorf("prng: key needs %d bytes, got %d", KeyBits/8, len(b))
	}
	var bits uint64
	// First 44 bits.
	for i := 0; i < 5; i++ {
		bits = bits<<8 | uint64(b[i])
	}
	bits = bits<<4 | uint64(b[5]>>4)
	addr := bits
	// Last 44 bits.
	bits = uint64(b[5] & 0x0f)
	for i := 6; i < 11; i++ {
		bits = bits<<8 | uint64(b[i])
	}
	return NewKey(addr, bits), nil
}

// Bytes is the inverse of KeyFromBytes.
func (k Key) Bytes() []byte {
	out := make([]byte, KeyBits/8)
	addr, volt := k.Address, k.Voltage
	out[0] = byte(addr >> 36)
	out[1] = byte(addr >> 28)
	out[2] = byte(addr >> 20)
	out[3] = byte(addr >> 12)
	out[4] = byte(addr >> 4)
	out[5] = byte(addr<<4) | byte(volt>>40)
	out[6] = byte(volt >> 32)
	out[7] = byte(volt >> 24)
	out[8] = byte(volt >> 16)
	out[9] = byte(volt >> 8)
	out[10] = byte(volt)
	return out
}

// FlipBit returns a copy of the key with bit i (0 = MSB of the address
// seed, 87 = LSB of the voltage seed) inverted — the key-avalanche
// perturbation of Section 6.1.
func (k Key) FlipBit(i int) Key {
	if i < 0 || i >= KeyBits {
		panic(fmt.Sprintf("prng: key bit %d out of range", i))
	}
	if i < SeedBits {
		return NewKey(k.Address^(1<<uint(SeedBits-1-i)), k.Voltage)
	}
	return NewKey(k.Address, k.Voltage^(1<<uint(KeyBits-1-i)))
}

// Coupled LCG parameters: two full-period generators modulo the Mersenne
// prime 2^61-1 with distinct multipliers.
const (
	m61 = (1 << 61) - 1
	a1  = 437799614237992725  // primitive root mod m61
	a2  = 1053547807097317913 // distinct primitive root
	c1  = 12345
	c2  = 67891
)

// Gen is one coupled-LCG stream.
type Gen struct {
	s1, s2 uint64
}

// NewGen seeds a stream. The seed words pass through a SplitMix64-style
// finalizer first, so sparse seeds (the low-density key data sets of
// Section 6.1 use keys with only one or two bits set) still fill both
// registers densely. A zero result maps to a fixed nonzero constant so the
// all-zero key runs.
func NewGen(seed uint64) *Gen {
	g := newGen(seed)
	return &g
}

// newGen is NewGen by value: schedule derivation keeps its generators on
// the stack.
func newGen(seed uint64) Gen {
	mix := func(x uint64) uint64 {
		x += 0x9E3779B97F4A7C15
		x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
		x = (x ^ x>>27) * 0x94D049BB133111EB
		return x ^ x>>31
	}
	g := Gen{
		s1: mix(seed) % m61,
		s2: mix(seed^0xA5A5A5A55A5A5A5A) % m61,
	}
	if g.s1 == 0 {
		g.s1 = 0x1234567
	}
	if g.s2 == 0 {
		g.s2 = 0x89ABCDE
	}
	// Warm up to decorrelate nearby seeds.
	for i := 0; i < 16; i++ {
		g.step()
	}
	return g
}

// mulmod61 returns a*b mod 2^61-1 for a, b <= 2^61-1. The 122-bit product
// splits at bit 61 into hi' = product>>61 and lo' = product&m61, and
// 2^61 = 1 (mod m61) folds it to hi'+lo' < 2*m61: one conditional
// subtract finishes the reduction.
func mulmod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	r := (hi<<3 | lo>>61) + lo&m61
	if r >= m61 {
		r -= m61
	}
	return r
}

// step advances both LCGs with cross-coupling and returns 61 mixed bits.
// Each update sums a residue below m61 and a term below 2^17, so one
// conditional subtract reduces it exactly.
func (g *Gen) step() uint64 {
	s1 := mulmod61(a1, g.s1) + c1 + g.s2%1024
	if s1 >= m61 {
		s1 -= m61
	}
	s2 := mulmod61(a2, g.s2) + c2 + s1%1024
	if s2 >= m61 {
		s2 -= m61
	}
	g.s1, g.s2 = s1, s2
	return s1 ^ (s2 << 3) ^ (s2 >> 7)
}

// Uint64 returns 64 pseudorandom bits.
func (g *Gen) Uint64() uint64 {
	return g.step()<<32 ^ g.step()
}

// Intn returns a uniform integer in [0, n) by rejection sampling.
func (g *Gen) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn needs n > 0")
	}
	bound := uint64(n)
	limit := ^uint64(0) - ^uint64(0)%bound
	for {
		v := g.Uint64()
		if v < limit {
			return int(v % bound)
		}
	}
}

// Bits fills dst with pseudorandom bits (one per byte, values 0/1).
func (g *Gen) Bits(dst []uint8) {
	var buf uint64
	var have int
	for i := range dst {
		if have == 0 {
			buf = g.Uint64()
			have = 64
		}
		dst[i] = uint8(buf & 1)
		buf >>= 1
		have--
	}
}

// Perm returns a pseudorandom permutation of [0, n) via Fisher-Yates.
func (g *Gen) Perm(n int) []int {
	p := make([]int, n)
	g.permInto(p)
	return p
}

// permInto fills p with a pseudorandom permutation of [0, len(p)), drawing
// exactly the values Perm(len(p)) draws.
func (g *Gen) permInto(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Schedule derives the SPE pulse program for one crossbar from the key:
// the order in which the covering PoEs fire and the pulse class each uses.
type Schedule struct {
	Order   []int // permutation of the PoE list indices
	Classes []int // pulse class per step, in [0, numClasses)
}

// DeriveSchedule expands the key into a schedule for nPoE points with
// numClasses distinct pulses. The address seed orders the PoEs; the voltage
// seed selects pulse classes — mirroring the two PRNG+LUT paths of Fig. 1b.
func DeriveSchedule(k Key, nPoE, numClasses int) Schedule {
	var s Schedule
	DeriveScheduleInto(&s, k, nPoE, numClasses)
	return s
}

// DeriveScheduleInto is DeriveSchedule writing into s, reusing its Order
// and Classes arrays when they have the capacity: the per-pulse-train form,
// allocation-free once s has been filled for nPoE points.
func DeriveScheduleInto(s *Schedule, k Key, nPoE, numClasses int) {
	if cap(s.Order) < nPoE {
		s.Order = make([]int, nPoE)
	}
	if cap(s.Classes) < nPoE {
		s.Classes = make([]int, nPoE)
	}
	s.Order, s.Classes = s.Order[:nPoE], s.Classes[:nPoE]
	ag := newGen(k.Address)
	ag.permInto(s.Order)
	vg := newGen(k.Voltage)
	for i := range s.Classes {
		s.Classes[i] = vg.Intn(numClasses)
	}
}
