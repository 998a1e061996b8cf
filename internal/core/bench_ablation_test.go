package core

import (
	"context"
	"math/rand"
	"testing"

	"snvmm/internal/telemetry"
	"snvmm/internal/telemetry/trace"
)

// Telemetry ablation: the same single-goroutine SPECU overwrite path (the
// write phase plus one block encrypt of data the block did not hold) with
// instrumentation detached versus attached. The "off" variant is the
// number that must stay glued to the cost of the encrypt itself — the
// disabled fast path is one atomic load and a branch per call site — and
// the on/off delta bounds the full enabled cost (two clock reads plus a
// handful of padded atomic updates per operation, against a pulse
// sequence of tens of µs). Both run under the make-bench 'BenchmarkSPECU'
// pattern so the pair is archived in BENCH_specu.json.

// benchAblationWrite drives b.N overwrites of s's encrypted blocks, cycling
// through the blocks and, one pass over them at a time, through four
// distinct random 64-byte blocks of data (as BenchmarkTrain/overwrite
// does): every write brings a block data other than what it holds, so no
// cache of a block's last train can turn its encrypt into a hit.
func benchAblationWrite(b *testing.B, s *SPECU, addrs []uint64) {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	data := make([][]byte, 4)
	for i := range data {
		data[i] = make([]byte, BlockSize)
		rng.Read(data[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(addrs[i%len(addrs)], data[i/len(addrs)%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
}

// BenchmarkSPECUEncryptTelemetryOff is the uninstrumented reference.
func BenchmarkSPECUEncryptTelemetryOff(b *testing.B) {
	s, addrs := benchSPECU(b, benchBlocks)
	benchAblationWrite(b, s, addrs)
}

// BenchmarkSPECUEncryptTelemetryOn is the same workload with a live
// registry attached (per-shard histograms, counters, gauges all updating).
func BenchmarkSPECUEncryptTelemetryOn(b *testing.B) {
	s, addrs := benchSPECU(b, benchBlocks)
	s.EnableTelemetry(telemetry.New())
	benchAblationWrite(b, s, addrs)
}

// benchAblationReadBatch drives b.N coalesced ReadBatch passes through a
// served SPECU — the batch hot path the causal tracer instruments.
func benchAblationReadBatch(b *testing.B, s *SPECU, addrs []uint64) {
	b.Helper()
	ctx := context.Background()
	if err := s.Serve(ctx, 4, 2*len(addrs)); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	// Warm pass: fabricate the working set before timing.
	for _, r := range s.ReadBatch(ctx, addrs) {
		if r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := s.ReadBatch(ctx, addrs); res[0].Err != nil {
			b.Fatal(res[0].Err)
		}
	}
	b.ReportMetric(float64(b.N*len(addrs))/b.Elapsed().Seconds(), "blocks/s")
}

// BenchmarkSPECUReadBatchTraceOff is the tracing ablation reference: the
// trace code is compiled in but no tracer is attached, so every span site
// is a nil-receiver no-op. This is the number the detached-cost acceptance
// bound holds against (the coalesced alloc-regression test pins allocs).
func BenchmarkSPECUReadBatchTraceOff(b *testing.B) {
	s, addrs := benchSPECU(b, benchBlocks)
	benchAblationReadBatch(b, s, addrs)
}

// BenchmarkSPECUReadBatchTraceOn is the same workload recording the full
// span hierarchy (batch root, shard runs, per-op, crypt, pulse trains)
// into a live ring.
func BenchmarkSPECUReadBatchTraceOn(b *testing.B) {
	s, addrs := benchSPECU(b, benchBlocks)
	s.EnableTracing(trace.New(trace.DefaultRingSize))
	benchAblationReadBatch(b, s, addrs)
}
