package main

import (
	"math/rand/v2"
	"slices"
	"sort"

	"snvmm/internal/core"
	"snvmm/internal/prng"
)

// The workload generator. Everything the program receives — key, working
// set contents, addresses and write payloads — is drawn from one PCG
// stream seeded by -seed, in a fixed order, so a seed replays
// byte-identical inputs.

type opKind uint8

const (
	opRead opKind = iota
	opWrite
)

func (k opKind) String() string {
	if k == opWrite {
		return "write"
	}
	return "read"
}

// request is one closed-loop request: a batch of distinct addresses of one
// kind, or a single op when the workload's batch is 1.
type request struct {
	kind  opKind
	addrs []uint64
	data  [][]byte // write payloads, parallel to addrs
}

type gen struct {
	w    *workload
	rng  *rand.Rand
	cdf  []float64 // Zipf(s=1) CDF over popularity ranks
	rank []int     // popularity rank -> block index
}

func newGen(w *workload, seed int64) *gen {
	g := &gen{w: w, rng: rand.New(rand.NewPCG(uint64(seed), 0x5be4c4e5a3f1d9b7))}
	if w.zipf {
		g.cdf = make([]float64, w.blocks)
		sum := 0.0
		for i := range g.cdf {
			sum += 1 / float64(i+1)
			g.cdf[i] = sum
		}
		for i := range g.cdf {
			g.cdf[i] /= sum
		}
		// Scatter the hot ranks over the address space, hence over shards.
		g.rank = g.rng.Perm(w.blocks)
	}
	return g
}

// key draws the device key of workloads that bring their own.
func (g *gen) key() prng.Key { return prng.NewKey(g.rng.Uint64(), g.rng.Uint64()) }

func (g *gen) payload() []byte {
	b := make([]byte, core.BlockSize)
	for i := 0; i < len(b); i += 8 {
		v := g.rng.Uint64()
		for j := 0; j < 8; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}

// fill returns the working set's initial contents, block i at address
// i*BlockSize.
func (g *gen) fill() []core.WriteOp {
	ops := make([]core.WriteOp, g.w.blocks)
	for i := range ops {
		ops[i] = core.WriteOp{Addr: uint64(i) * core.BlockSize, Data: g.payload()}
	}
	return ops
}

func (g *gen) block() int {
	if g.cdf == nil {
		return g.rng.IntN(g.w.blocks)
	}
	u := g.rng.Float64()
	return g.rank[min(sort.SearchFloat64s(g.cdf, u), len(g.cdf)-1)]
}

// next draws the next request.
func (g *gen) next() request {
	r := request{kind: opRead}
	if g.rng.Float64() >= g.w.readFrac {
		r.kind = opWrite
	}
	r.addrs = make([]uint64, 0, g.w.batch)
	for len(r.addrs) < g.w.batch {
		if a := uint64(g.block()) * core.BlockSize; !slices.Contains(r.addrs, a) {
			r.addrs = append(r.addrs, a)
		}
	}
	if r.kind == opWrite {
		r.data = make([][]byte, len(r.addrs))
		for i := range r.data {
			r.data[i] = g.payload()
		}
	}
	return r
}

// shardOf mirrors core's address-to-shard hash (core.NumShards shards), so
// the input report can say how many shard runs a batch fans out to.
func shardOf(addr uint64) int {
	h := addr * 0x9E3779B97F4A7C15
	h ^= h >> 32
	return int(h & (core.NumShards - 1))
}
