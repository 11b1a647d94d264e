package metrics

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// This file implements the serving layer's streaming latency sketch: a
// DDSketch-style log-bucketed histogram with a fixed memory footprint
// and a relative-accuracy guarantee on every quantile. The serving
// report's p50/p95/p99 numbers come from here, so the structure keeps
// its promises narrow and testable:
//
//   - Record is O(1), allocation-free after construction, and safe for
//     concurrent recorders (the soak test hammers one sketch from many
//     connection handlers under -race).
//   - Quantile(q) returns a value within γ (SketchAccuracy) relative
//     error of the exact q-quantile of everything recorded — exactly
//     verifiable against a sorted copy on small inputs.

// SketchAccuracy is the relative-error bound γ of LatencySketch
// quantiles: the estimate e for exact value v satisfies |e-v| ≤ γ·v.
const SketchAccuracy = 0.01

// sketchBuckets bounds the histogram: bucket i≥1 covers
// (γ^(i-1), γ^i] nanoseconds with growth factor g=(1+γ)/(1-γ)≈1.0202,
// so 2048 buckets reach ≈e^(2047·0.02) ns ≈ 19 years — far past any
// latency this server can observe. Larger values clamp into the last
// bucket rather than growing memory.
const sketchBuckets = 2048

// sketchGrowth is the bucket growth factor g = (1+γ)/(1-γ).
var sketchGrowth = (1 + SketchAccuracy) / (1 - SketchAccuracy)

// lnGrowth caches ln(g) for index computation.
var lnGrowth = math.Log(sketchGrowth)

// LatencySketch is a fixed-size streaming quantile sketch over
// durations. The zero value is ready to use; all methods are safe for
// concurrent use.
type LatencySketch struct {
	mu     sync.Mutex
	counts [sketchBuckets]int64
	count  int64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// bucketOf maps a duration to its bucket index. Non-positive durations
// (clock skew, zero-length measurements) land in bucket 0 alongside
// sub-nanosecond values.
func bucketOf(d time.Duration) int {
	ns := float64(d.Nanoseconds())
	if ns <= 1 {
		return 0
	}
	i := int(math.Ceil(math.Log(ns) / lnGrowth))
	if i < 1 {
		i = 1
	}
	if i >= sketchBuckets {
		i = sketchBuckets - 1
	}
	return i
}

// bucketValue is the representative estimate of bucket i: the point
// minimizing worst-case relative error over the bucket's range,
// 2·g^i/(1+g). Bucket 0 represents ≤1 ns.
func bucketValue(i int) time.Duration {
	if i == 0 {
		return time.Nanosecond
	}
	v := 2 * math.Pow(sketchGrowth, float64(i)) / (1 + sketchGrowth)
	return time.Duration(math.Round(v))
}

// Record folds one observation into the sketch.
func (s *LatencySketch) Record(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counts[bucketOf(d)]++
	s.count++
	s.sum += d
	if s.count == 1 || d < s.min {
		s.min = d
	}
	if s.count == 1 || d > s.max {
		s.max = d
	}
}

// Count returns the number of recorded observations.
func (s *LatencySketch) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Quantile returns an estimate of the q-quantile (q clamped to [0,1])
// within SketchAccuracy relative error; exact at q=0 and q=1 (min and
// max are tracked exactly). Sub-nanosecond and non-positive
// observations are indistinguishable from 1 ns at interior quantiles
// (they share bucket 0).
//
// An empty sketch returns 0 for every q — including q=0 and q=1, where
// min/max have never been set. Zero is the defined "no observations"
// value, not a measurement: callers rendering quantiles should check
// Count first if they need to distinguish "no data" from "0ns".
func (s *LatencySketch) Quantile(q float64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quantileLocked(q)
}

func (s *LatencySketch) quantileLocked(q float64) time.Duration {
	if s.count == 0 {
		return 0
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	// Nearest-rank: the ceil(q·n)-th smallest observation (1-based).
	rank := int64(math.Ceil(q * float64(s.count)))
	if rank < 1 {
		rank = 1
	}
	if rank > s.count {
		rank = s.count
	}
	var seen int64
	for i := 0; i < sketchBuckets; i++ {
		seen += s.counts[i]
		if seen >= rank {
			return clampDuration(bucketValue(i), s.min, s.max)
		}
	}
	return s.max // unreachable: counts sum to s.count
}

// clampDuration bounds an estimate to the exactly-tracked extremes —
// tightening, never loosening, the γ guarantee.
func clampDuration(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// LatencySnapshot is a point-in-time digest of a sketch, shaped for the
// STATS frame and the serving report.
type LatencySnapshot struct {
	Count int64         `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Min   time.Duration `json:"min_ns"`
	Max   time.Duration `json:"max_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	P999  time.Duration `json:"p999_ns"`
}

// Mean returns the exact mean latency (0 when empty).
func (l LatencySnapshot) Mean() time.Duration {
	if l.Count == 0 {
		return 0
	}
	return l.Sum / time.Duration(l.Count)
}

// String renders the snapshot for logs and reports.
func (l LatencySnapshot) String() string {
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s p99=%s p99.9=%s max=%s",
		l.Count, l.Mean().Round(time.Microsecond), l.P50.Round(time.Microsecond),
		l.P95.Round(time.Microsecond), l.P99.Round(time.Microsecond),
		l.P999.Round(time.Microsecond), l.Max.Round(time.Microsecond))
}

// Snapshot digests the sketch under one lock acquisition.
func (s *LatencySketch) Snapshot() LatencySnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return LatencySnapshot{
		Count: s.count,
		Sum:   s.sum,
		Min:   s.min,
		Max:   s.max,
		P50:   s.quantileLocked(0.50),
		P95:   s.quantileLocked(0.95),
		P99:   s.quantileLocked(0.99),
		P999:  s.quantileLocked(0.999),
	}
}
