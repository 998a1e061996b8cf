package core

import (
	"testing"

	"snvmm/internal/prng"
)

// The block-level crypto benchmarks drive the SPE hot path over many
// *distinct* blocks, the way the served SPECU does: every block fabricates
// its own crossbars, so per-block calibration cost (amortized away by the
// shared calibration cache) and per-pulse deviation cost both show up here.
// EXPERIMENTS.md and BENCH_specu.json record before/after numbers.

const benchBlocks = 32

func benchBlockSet(b *testing.B) ([]*Block, [][]byte, prng.Key) {
	b.Helper()
	eng, err := sharedEngine()
	if err != nil {
		b.Fatal(err)
	}
	blocks := make([]*Block, benchBlocks)
	pts := make([][]byte, benchBlocks)
	for i := range blocks {
		blk, err := eng.NewBlock(int64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		blocks[i] = blk
		pt := make([]byte, BlockSize)
		for j := range pt {
			pt[j] = byte(i*31 + j*7)
		}
		pts[i] = pt
	}
	key := prng.NewKey(0xB10C, 0xC0DE)
	// One round trip per block builds its lazy per-crossbar state (tracker,
	// schedule scratch) before timing, so every -benchtime measures warm
	// blocks; BenchmarkNewBlockFirstEncrypt measures the cold path.
	for i, blk := range blocks {
		if err := blk.WritePlain(pts[i]); err != nil {
			b.Fatal(err)
		}
		if err := blk.Encrypt(key, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if err := blk.Decrypt(key, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	return blocks, pts, key
}

// BenchmarkBlockEncrypt measures one full write+encrypt per op, cycling
// through 32 distinct blocks so no single block's lazily-built state can
// hide the per-block cost. Each block is rewritten with the plaintext it
// held, so the permutation memos find no changed cells; an overwrite with new
// data is BenchmarkSPECUEncryptTelemetryOff.
func BenchmarkBlockEncrypt(b *testing.B) {
	blocks, pts, key := benchBlockSet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := blocks[i%benchBlocks]
		if err := blk.WritePlain(pts[i%benchBlocks]); err != nil {
			b.Fatal(err)
		}
		if err := blk.Encrypt(key, uint64(i%benchBlocks)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := blk.Decrypt(key, uint64(i%benchBlocks)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkBlockDecrypt measures the decrypt half over 32 distinct blocks.
func BenchmarkBlockDecrypt(b *testing.B) {
	blocks, pts, key := benchBlockSet(b)
	for i, blk := range blocks {
		if err := blk.WritePlain(pts[i]); err != nil {
			b.Fatal(err)
		}
		if err := blk.Encrypt(key, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := blocks[i%benchBlocks]
		if err := blk.Decrypt(key, uint64(i%benchBlocks)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := blk.Encrypt(key, uint64(i%benchBlocks)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkBlockRoundTrip is the steady-state served mix: decrypt + encrypt
// (a Parallel-mode read) per op, over 32 resident blocks.
func BenchmarkBlockRoundTrip(b *testing.B) {
	blocks, pts, key := benchBlockSet(b)
	for i, blk := range blocks {
		if err := blk.WritePlain(pts[i]); err != nil {
			b.Fatal(err)
		}
		if err := blk.Encrypt(key, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := blocks[i%benchBlocks]
		if err := blk.Decrypt(key, uint64(i%benchBlocks)); err != nil {
			b.Fatal(err)
		}
		if err := blk.Encrypt(key, uint64(i%benchBlocks)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewBlockFirstEncrypt isolates the cold path: fabricate a fresh
// block and run its first encryption (which triggers calibration).
func BenchmarkNewBlockFirstEncrypt(b *testing.B) {
	eng, err := sharedEngine()
	if err != nil {
		b.Fatal(err)
	}
	pt := make([]byte, BlockSize)
	key := prng.NewKey(1, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := eng.NewBlock(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := blk.WritePlain(pt); err != nil {
			b.Fatal(err)
		}
		if err := blk.Encrypt(key, 0); err != nil {
			b.Fatal(err)
		}
	}
}
