package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"snvmm/internal/prng"
)

// benchSPECU builds a SPECU pre-populated with blocks spread across the
// shards, ready for read benchmarking.
func benchSPECU(b testing.TB, numBlocks int) (*SPECU, []uint64) {
	b.Helper()
	eng, err := sharedEngine()
	if err != nil {
		b.Fatal(err)
	}
	s := NewSPECU(eng, Parallel)
	if err := s.PowerOn(prng.NewKey(0xBE, 0xAC)); err != nil {
		b.Fatal(err)
	}
	addrs := make([]uint64, numBlocks)
	ops := make([]WriteOp, numBlocks)
	data := make([]byte, BlockSize)
	for i := range data {
		data[i] = byte(i)
	}
	for i := range addrs {
		addrs[i] = uint64(i) * BlockSize
		ops[i] = WriteOp{Addr: addrs[i], Data: data}
	}
	for _, err := range s.WriteBatch(context.Background(), ops) {
		if err != nil {
			b.Fatal(err)
		}
	}
	return s, addrs
}

// BenchmarkSPECUSequentialRead is the synchronous Parallel-mode read: one
// goroutine, no pool, each read a read-through (one decrypt pulse train
// and one rewind per crossbar).
func BenchmarkSPECUSequentialRead(b *testing.B) {
	s, addrs := benchSPECU(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Read(addrs[i%len(addrs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
}

// BenchmarkSPECUShardedRead drives the same read mix through the served
// pipeline at 1, 4 and 8 workers: the coalesced shard runs of each batch
// execute concurrently, each block crypting its crossbars in turn.
// On a multi-core host the >= 4-worker variants beat the sequential
// baseline; on GOMAXPROCS=1 they bound the pipeline's scheduling overhead
// instead (see EXPERIMENTS.md for recorded numbers).
func BenchmarkSPECUShardedRead(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			s, addrs := benchSPECU(b, 64)
			if err := s.Serve(context.Background(), workers, 2*len(addrs)); err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ResetTimer()
			done := 0
			for done < b.N {
				n := len(addrs)
				if rem := b.N - done; rem < n {
					n = rem
				}
				for _, r := range s.ReadBatch(context.Background(), addrs[:n]) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
				done += n
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
		})
	}
}

// BenchmarkSPECUShardedWrite mirrors the read benchmark for the write path
// (write phase + encryption phase per block).
func BenchmarkSPECUShardedWrite(b *testing.B) {
	for _, workers := range []int{0, 4} { // 0 = no pool (sequential)
		name := "sequential"
		if workers > 0 {
			name = benchName(workers)
		}
		b.Run(name, func(b *testing.B) {
			s, addrs := benchSPECU(b, 64)
			if workers > 0 {
				if err := s.Serve(context.Background(), workers, 2*len(addrs)); err != nil {
					b.Fatal(err)
				}
				defer s.Close()
			}
			data := make([]byte, BlockSize)
			ops := make([]WriteOp, len(addrs))
			for i := range ops {
				ops[i] = WriteOp{Addr: addrs[i], Data: data}
			}
			b.ResetTimer()
			done := 0
			for done < b.N {
				n := len(ops)
				if rem := b.N - done; rem < n {
					n = rem
				}
				for _, err := range s.WriteBatch(context.Background(), ops[:n]) {
					if err != nil {
						b.Fatal(err)
					}
				}
				done += n
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
		})
	}
}

// BenchmarkSPECUEncryptBatch is the epoch re-encryption sweep: each
// iteration decrypts then re-encrypts the whole working set through the
// coalesced batch path (one pulse-train pair per block, one shard run per
// touched shard). This is the workload the adaptive scheduler exists
// for — large, embarrassingly parallel, latency-insensitive — and the
// workers=4-vs-1 ratio is the CI speedup gate on multi-core hosts.
func BenchmarkSPECUEncryptBatch(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			s, addrs := benchSPECU(b, 64)
			if err := s.Serve(context.Background(), workers, 2*len(addrs)); err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, err := range s.DecryptBatch(ctx, addrs) {
					if err != nil {
						b.Fatal(err)
					}
				}
				for _, err := range s.EncryptBatch(ctx, addrs) {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.N*len(addrs))/b.Elapsed().Seconds(), "blocks/s")
		})
	}
}

// BenchmarkSPECUFlush is the Serial flush rung: one op is one
// EncryptPending over 256 blocks a read left decrypted, so every block
// restores the ciphertext its read decrypted instead of pulsing. The
// reads that decrypt the blocks run with the timer stopped.
func BenchmarkSPECUFlush(b *testing.B) {
	eng, err := sharedEngine()
	if err != nil {
		b.Fatal(err)
	}
	s := NewSPECU(eng, Serial)
	if err := s.PowerOn(prng.NewKey(0xF1, 0x5E)); err != nil {
		b.Fatal(err)
	}
	addrs := make([]uint64, 256)
	for i := range addrs {
		addrs[i] = uint64(i) * BlockSize
		if err := s.Write(addrs[i], batchPayload(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, a := range addrs {
			if _, err := s.Read(a); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := s.EncryptPending(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(addrs))/b.Elapsed().Seconds(), "blocks/s")
}

// BenchmarkHelperSpawn is what one helper adds to a coalesced batch on
// top of its shard runs: take a budget token, start a goroutine that gives
// it back, and join it. EXPERIMENTS.md sets it against the batch benches.
func BenchmarkHelperSpawn(b *testing.B) {
	budget := newHelperBudget(2)
	if budget.workers < 2 {
		b.Skip("needs sched.Workers(2) = 2 for a helper token")
	}
	var wg sync.WaitGroup
	for i := 0; i < b.N; i++ {
		n := budget.take(1)
		wg.Add(n)
		for range n {
			go func() {
				budget.give()
				wg.Done()
			}()
		}
		wg.Wait()
	}
}

// BenchmarkInlineThreshold reads inlineBatchMax+1 blocks per ReadBatch, the
// smallest batch that coalesces: inline at workers=1, coalesced with one
// helper at workers=2. Coalescing must not lose here, or inlineBatchMax is
// too low.
func BenchmarkInlineThreshold(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(benchName(workers), func(b *testing.B) {
			s, addrs := benchSPECU(b, inlineBatchMax+1)
			if err := s.Serve(context.Background(), workers, 0); err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if s.budget.Load().workers != workers {
				b.Skip("sched.Workers clamps the worker count")
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := s.ReadBatch(ctx, addrs); res[0].Err != nil {
					b.Fatal(res[0].Err)
				}
			}
			b.ReportMetric(float64(b.N*len(addrs))/b.Elapsed().Seconds(), "blocks/s")
		})
	}
}

func benchName(workers int) string {
	return fmt.Sprintf("workers=%d", workers)
}
