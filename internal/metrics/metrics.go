// Package metrics computes the evaluation metrics of §5: per-client
// execution-time breakdowns (switch / transfer / processing, Figure 9 and
// Table 3) and the stretch-based fairness metrics (L2-norm and maximum
// stretch, Figure 12).
package metrics

import (
	"math"
	"sort"
	"time"

	"repro/internal/csd"
)

// Stretch is observed/ideal execution time: the slowdown a job suffers
// from sharing the platform.
func Stretch(observed, ideal time.Duration) float64 {
	if ideal <= 0 {
		return math.Inf(1)
	}
	return float64(observed) / float64(ideal)
}

// L2Norm aggregates stretches into a single metric that penalizes both a
// high average and high outliers: sqrt(Σ sᵢ²).
func L2Norm(stretches []float64) float64 {
	sum := 0.0
	for _, s := range stretches {
		sum += s * s
	}
	return math.Sqrt(sum)
}

// Max returns the maximum of the values (0 for an empty slice).
func Max(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// normalize sorts intervals and merges overlaps.
func normalize(ivs []csd.Interval) []csd.Interval {
	if len(ivs) == 0 {
		return nil
	}
	out := append([]csd.Interval(nil), ivs...)
	sort.Slice(out, func(i, j int) bool { return out[i].From < out[j].From })
	merged := out[:1]
	for _, iv := range out[1:] {
		last := &merged[len(merged)-1]
		if iv.From <= last.To {
			if iv.To > last.To {
				last.To = iv.To
			}
			continue
		}
		merged = append(merged, iv)
	}
	return merged
}

// Total sums interval lengths after merging overlaps.
func Total(ivs []csd.Interval) time.Duration {
	var d time.Duration
	for _, iv := range normalize(ivs) {
		d += iv.To - iv.From
	}
	return d
}

// Overlap returns the total duration covered by both interval sets.
func Overlap(a, b []csd.Interval) time.Duration {
	na, nb := normalize(a), normalize(b)
	var d time.Duration
	i, j := 0, 0
	for i < len(na) && j < len(nb) {
		lo := na[i].From
		if nb[j].From > lo {
			lo = nb[j].From
		}
		hi := na[i].To
		if nb[j].To < hi {
			hi = nb[j].To
		}
		if hi > lo {
			d += hi - lo
		}
		if na[i].To < nb[j].To {
			i++
		} else {
			j++
		}
	}
	return d
}

// Breakdown splits a client's execution time into the paper's categories.
type Breakdown struct {
	Total      time.Duration
	Processing time.Duration // query execution (virtual compute)
	Fuse       time.Duration // FUSE file-system overhead (vanilla only)
	Switch     time.Duration // stall time attributable to group switches
	Transfer   time.Duration // remaining stall: waiting for data
}

// Compute derives the breakdown: the client's stall windows are
// intersected with the device's switch windows to attribute stall time to
// group switching; the rest of the stall is data transfer.
func Compute(total, processing, fuse time.Duration, stalls, switches []csd.Interval) Breakdown {
	sw := Overlap(stalls, switches)
	stall := Total(stalls)
	return Breakdown{
		Total:      total,
		Processing: processing,
		Fuse:       fuse,
		Switch:     sw,
		Transfer:   stall - sw,
	}
}

// PruneRatio returns the fraction of candidate segment fetches that data
// skipping avoided: skipped / (issued + skipped), or 0 when there were no
// candidates. Issued should count the requests actually sent (including
// reissues); skipped the requests the statistics subsystem suppressed.
func PruneRatio(issued, skipped int) float64 {
	if issued+skipped <= 0 {
		return 0
	}
	return float64(skipped) / float64(issued+skipped)
}

// HitRatio returns the fraction of segment-cache lookups that hit:
// hits / (hits + misses), or 0 when the cache saw no traffic.
func HitRatio(hits, misses int64) float64 {
	if hits+misses <= 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// ProjectionRatio returns the fraction of candidate block bytes that
// projection pushdown left undecoded: skipped / (decoded + skipped), or
// 0 when nothing was read. Decoded should count the block bytes a scan
// actually decoded; skipped the block bytes its projection passed over.
func ProjectionRatio(decoded, skipped int64) float64 {
	if decoded+skipped <= 0 {
		return 0
	}
	return float64(skipped) / float64(decoded+skipped)
}

// Percent returns 100·part/total, or 0 when total is zero.
func Percent(part, total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}
