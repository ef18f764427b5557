package metrics

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// randomDurations draws n durations across every bucket, with the edge
// values mixed in: zero, negatives (which clamp to zero), one, and the
// extremes of int64.
func randomDurations(rng *rand.Rand, n int) []time.Duration {
	edges := []time.Duration{0, -1, math.MinInt64, 1, math.MaxInt64, math.MaxInt64 - 1, 1 << 62}
	out := make([]time.Duration, n)
	for i := range out {
		switch rng.Intn(4) {
		case 0:
			out[i] = edges[rng.Intn(len(edges))]
		case 1:
			out[i] = time.Duration(rng.Int63n(1 << 20))
		default:
			out[i] = time.Duration(rng.Int63() >> uint(rng.Intn(63)))
		}
	}
	return out
}

// sameHistogram reports the first field where a and b differ.
func sameHistogram(t *testing.T, a, b *DurationHistogram) {
	t.Helper()
	for i := 0; i < a.NumBuckets(); i++ {
		if a.BucketCount(i) != b.BucketCount(i) {
			t.Fatalf("bucket %d: %d vs %d", i, a.BucketCount(i), b.BucketCount(i))
		}
	}
	if a.Count() != b.Count() || a.Sum() != b.Sum() || a.Max() != b.Max() {
		t.Fatalf("count/sum/max: %d/%d/%d vs %d/%d/%d",
			a.Count(), a.Sum(), a.Max(), b.Count(), b.Sum(), b.Max())
	}
}

// TestDurationBatchMergeMatchesObserve pins the batch contract: staging
// values in a DurationBatch and merging it leaves a histogram
// field-identical (every bucket, count, sum and max) to calling Observe
// on each value, across repeated merges of the same reused batch. The
// merge must leave the batch empty, and merging an empty batch is a
// no-op.
func TestDurationBatchMergeMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	direct, merged := NewDurationHistogram(), NewDurationHistogram()
	var b DurationBatch
	for round := 0; round < 200; round++ {
		ds := randomDurations(rng, rng.Intn(64))
		for _, d := range ds {
			direct.Observe(d)
			b.Add(d)
		}
		if b.Count() != int64(len(ds)) {
			t.Fatalf("round %d: batch count %d, want %d", round, b.Count(), len(ds))
		}
		merged.Merge(&b)
		if b != (DurationBatch{}) {
			t.Fatalf("round %d: batch not cleared by Merge", round)
		}
		sameHistogram(t, direct, merged)
	}
	merged.Merge(&b)
	sameHistogram(t, direct, merged)
}

// TestDurationHistogramObserveNMatchesObserve pins ObserveN(d, n) as n
// calls of Observe(d), and n ≤ 0 as no observation.
func TestDurationHistogramObserveNMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	direct, batched := NewDurationHistogram(), NewDurationHistogram()
	for _, d := range randomDurations(rng, 300) {
		n := int64(rng.Intn(6)) - 1
		batched.ObserveN(d, n)
		for i := int64(0); i < n; i++ {
			direct.Observe(d)
		}
	}
	sameHistogram(t, direct, batched)
}

// TestDurationBatchMergeUnderScrapes merges batches from one writer
// while readers scrape, and pins what the merge order promises a live
// scrape: buckets land before the count, so the bucket total a reader
// sums after loading the count always covers it, and every quantile
// stays within [0, largest value staged]. Run under -race this is the
// safety gate for publishing round-local batches.
func TestDurationBatchMergeUnderScrapes(t *testing.T) {
	const rounds, perRound = 2000, 48
	const maxObs = 1 << 24
	h := NewDurationHistogram()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := h.Count()
				var cum int64
				for i := 0; i < h.NumBuckets(); i++ {
					cum += h.BucketCount(i)
				}
				if cum < n {
					t.Errorf("bucket total %d below count %d read before it", cum, n)
					return
				}
				for _, q := range []float64{0.5, 0.99, 1} {
					if v := h.Quantile(q); v < 0 || v > maxObs {
						t.Errorf("Quantile(%v) = %v, outside [0, %v]", q, v, time.Duration(maxObs))
						return
					}
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(3))
	direct := NewDurationHistogram()
	var b DurationBatch
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRound; i++ {
			d := time.Duration(rng.Int63n(maxObs + 1))
			b.Add(d)
			direct.Observe(d)
		}
		h.Merge(&b)
	}
	close(stop)
	readers.Wait()
	sameHistogram(t, direct, h)
}
