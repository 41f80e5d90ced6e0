package stats

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// LatencyHist is a fixed-size log-linear histogram for latency
// observations, sized for lock-free concurrent recording on a hot path:
// Observe is a single atomic increment, and percentile extraction walks
// the buckets once. The benchmark harness records one observation per
// network verb round trip, so the write path must cost no more than the
// verb accounting it measures.
//
// Buckets cover the full uint64 nanosecond range with 8 sub-buckets per
// power of two (≈9% relative resolution), which resolves the 10-20%
// level differences an A/B comparison of verb profiles needs while
// keeping the whole histogram under 4KB of counters.
type LatencyHist struct {
	buckets [histBuckets]atomic.Uint64
}

const (
	histSub     = 8 // sub-buckets per power-of-two octave
	histSubLog2 = 3
	// Values below 2^(histSubLog2+1) get one exact bucket each; every
	// higher octave contributes histSub sub-buckets. 64-bit nanoseconds
	// therefore need 2*histSub + (63-histSubLog2)*histSub buckets.
	histBuckets = 2*histSub + (63-histSubLog2)*histSub
)

// histIndex maps a duration in nanoseconds to its bucket (contiguous:
// every bucket is reachable and ordered by value).
func histIndex(ns uint64) int {
	exp := bits.Len64(ns) - 1 // position of the leading bit; -1 for ns==0
	if exp <= histSubLog2 {
		return int(ns) // ns < 16: exact buckets 0..15
	}
	sub := (ns >> (uint(exp) - histSubLog2)) & (histSub - 1)
	return (exp-histSubLog2)*histSub + int(sub) + histSub
}

// histLower returns the lower bound (in ns) of bucket idx — the inverse
// of histIndex up to bucket granularity.
func histLower(idx int) uint64 {
	if idx < 2*histSub {
		return uint64(idx)
	}
	block := (idx - 2*histSub) / histSub // 0-based octave above the exact range
	sub := uint64((idx - 2*histSub) % histSub)
	exp := uint(block + histSubLog2 + 1)
	return 1<<exp | sub<<(exp-histSubLog2)
}

// Observe records one latency sample. Negative durations are clamped to
// zero. Safe for concurrent use.
func (h *LatencyHist) Observe(d time.Duration) { h.ObserveN(d, 1) }

// ObserveN records n identical samples with one atomic add (a doorbell
// batch observes its round trip once per carried verb).
func (h *LatencyHist) ObserveN(d time.Duration, n uint64) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.buckets[histIndex(ns)].Add(n)
}

// Count returns the total number of recorded samples.
func (h *LatencyHist) Count() uint64 {
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Percentile returns the latency at quantile p in [0, 1] (0.5 = median).
// The value is the geometric midpoint of the bucket containing the
// quantile, so it is accurate to the histogram's ≈9% bucket resolution.
// An empty histogram returns 0.
func (h *LatencyHist) Percentile(p float64) time.Duration {
	total := h.Count()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			lo := histLower(i)
			var hi uint64
			if i+1 < histBuckets {
				hi = histLower(i + 1)
			}
			if hi <= lo {
				hi = lo + 1
			}
			mid := math.Sqrt(float64(lo) * float64(hi))
			return time.Duration(mid)
		}
	}
	return 0
}

// AddTo accumulates this histogram's counts into dst. Both sides may be
// observed concurrently; the merge transfers a per-bucket point-in-time
// snapshot.
func (h *LatencyHist) AddTo(dst *LatencyHist) {
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c != 0 {
			dst.buckets[i].Add(c)
		}
	}
}

// Reset zeroes every bucket. Concurrent Observe calls may survive into
// the post-Reset state; callers quiesce recording first when exactness
// matters (the bench harness resets between warmup and measurement).
func (h *LatencyHist) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}
