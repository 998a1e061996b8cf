package main

import (
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie above a reported tail
// percentile.
const minBeyond = 10

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first. The ladder is coarse so that runs of similar length pick
// the same rung.
var tailLadder = []float64{99, 90, 50}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it (50 when even the median has fewer).
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if float64(n)*(100-q)/100 >= minBeyond-1e-9 {
			return q
		}
	}
	return 50
}

// percentile returns the nearest-rank q-th percentile of xs (not modified).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// batchSample is one timed batch: its kind, op count and wall time.
type batchSample struct {
	kind   opKind
	ops    int
	wallUs float64
}

// parallelEff is the batch layer's parallel efficiency: the time the ops
// would take one after another at the single-goroutine op time of their
// kind, over the batch wall times multiplied by the cores the pool can use,
// min(workers, nproc). 1.0 means the pool turns every core into
// throughput; a serial trace on one worker scores exactly 1.
func parallelEff(batches []batchSample, opUs map[opKind]float64, workers, nproc int) float64 {
	serial, wall := 0.0, 0.0
	for _, b := range batches {
		serial += float64(b.ops) * opUs[b.kind]
		wall += b.wallUs
	}
	cores := float64(max(1, min(workers, nproc)))
	if wall == 0 {
		return math.NaN()
	}
	return serial / (wall * cores)
}
