package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// exactQuantile is the oracle the sketch is tested against: the
// nearest-rank (ceil(q·n)-th smallest) element of the sorted data.
func exactQuantile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// checkQuantiles asserts every probed quantile is within the γ
// relative-error contract of the exact answer.
func checkQuantiles(t *testing.T, s *LatencySketch, data []time.Duration) {
	t.Helper()
	sorted := append([]time.Duration(nil), data...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
		exact := exactQuantile(sorted, q)
		if q > 0 && q < 1 && exact < time.Nanosecond {
			// Interior quantiles cannot distinguish sub-nanosecond (or
			// non-positive) observations: they share bucket 0. The exact
			// extremes (q=0, q=1) stay exact via min/max.
			exact = time.Nanosecond
		}
		got := s.Quantile(q)
		tol := time.Duration(math.Ceil(SketchAccuracy * math.Abs(float64(exact))))
		if got < exact-tol || got > exact+tol {
			t.Errorf("q=%.2f: got %v, exact %v (tolerance %v)", q, got, exact, tol)
		}
	}
}

// TestSketchExactSmallInputs runs the differential against exact sorted
// quantiles on assorted small inputs, including the shapes a latency
// distribution actually takes (clustered with a heavy tail).
func TestSketchExactSmallInputs(t *testing.T) {
	cases := map[string][]time.Duration{
		"single":    {42 * time.Millisecond},
		"two":       {time.Millisecond, time.Second},
		"uniform":   nil, // filled below
		"clustered": nil,
		"identical": {7 * time.Millisecond, 7 * time.Millisecond, 7 * time.Millisecond, 7 * time.Millisecond},
		"tiny":      {0, time.Nanosecond, 2 * time.Nanosecond, -time.Nanosecond},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		cases["uniform"] = append(cases["uniform"], time.Duration(rng.Int63n(int64(time.Second))))
	}
	for i := 0; i < 95; i++ {
		cases["clustered"] = append(cases["clustered"], 5*time.Millisecond+time.Duration(rng.Int63n(int64(time.Millisecond))))
	}
	for i := 0; i < 5; i++ {
		cases["clustered"] = append(cases["clustered"], time.Second+time.Duration(rng.Int63n(int64(time.Second))))
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			var s LatencySketch
			for _, d := range data {
				s.Record(d)
			}
			if s.Count() != int64(len(data)) {
				t.Fatalf("count %d, want %d", s.Count(), len(data))
			}
			checkQuantiles(t, &s, data)
		})
	}
}

func TestSketchEmpty(t *testing.T) {
	var s LatencySketch
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("empty sketch quantile = %v, want 0", got)
	}
	snap := s.Snapshot()
	if snap.Count != 0 || snap.P99 != 0 || snap.Mean() != 0 {
		t.Errorf("empty snapshot not zero: %+v", snap)
	}
}

// TestSketchConcurrentRecorders hammers one sketch from many goroutines
// — the shape the server uses it in — and checks the totals. Run under
// -race in CI.
func TestSketchConcurrentRecorders(t *testing.T) {
	var s LatencySketch
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				s.Record(time.Duration(rng.Int63n(int64(time.Second))))
				if i%100 == 0 {
					_ = s.Quantile(0.95) // concurrent reads too
					_ = s.Snapshot()
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if got := s.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	snap := s.Snapshot()
	if snap.P50 <= 0 || snap.P95 < snap.P50 || snap.P99 < snap.P95 || snap.Max < snap.P99 {
		t.Fatalf("quantiles not monotone: %+v", snap)
	}
}

// TestAdmissionCounters exercises the serving counters incl. the
// concurrent path and snapshot totals.
func TestAdmissionCounters(t *testing.T) {
	var c AdmissionCounters
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Admitted.Add(1)
				c.AddQueueWait(time.Millisecond)
				c.AddQueueWait(0) // ignored
			}
		}()
	}
	wg.Wait()
	snap := c.Snapshot()
	if snap.Admitted != 400 || snap.QueueWait != 400*time.Millisecond {
		t.Fatalf("snapshot = %+v", snap)
	}
	total := snap.Add(AdmissionSnapshot{Admitted: 1, Rejected: 2})
	if total.Admitted != 401 || total.Rejected != 2 {
		t.Fatalf("Add = %+v", total)
	}
}

// Regression for the empty-sketch Quantile contract: every q — the
// interior, and the exactly-tracked endpoints q=0/q=1 where min/max
// were never set — returns the defined "no observations" value 0.
func TestSketchEmptyQuantileAllQ(t *testing.T) {
	var s LatencySketch
	for _, q := range []float64{-1, 0, 0.5, 0.999, 1, 2} {
		if got := s.Quantile(q); got != 0 {
			t.Errorf("empty sketch Quantile(%g) = %v, want 0", q, got)
		}
	}
	snap := s.Snapshot()
	if snap.P999 != 0 || snap.Min != 0 || snap.Max != 0 {
		t.Errorf("empty snapshot not zero: %+v", snap)
	}
	if !strings.Contains(snap.String(), "p99.9=") {
		t.Errorf("snapshot string missing p99.9 column: %s", snap.String())
	}
}

// P999 must sit between P99 and Max and track the tail.
func TestSketchP999(t *testing.T) {
	var s LatencySketch
	for i := 1; i <= 10000; i++ {
		s.Record(time.Duration(i) * time.Microsecond)
	}
	snap := s.Snapshot()
	if snap.P999 < snap.P99 || snap.P999 > snap.Max {
		t.Fatalf("p99.9 out of order: p99=%v p99.9=%v max=%v", snap.P99, snap.P999, snap.Max)
	}
	exact := 9990 * time.Microsecond
	if err := math.Abs(float64(snap.P999-exact)) / float64(exact); err > 2*SketchAccuracy {
		t.Fatalf("p99.9 = %v, want ≈%v (rel err %.4f)", snap.P999, exact, err)
	}
}

// AdmissionSnapshot under concurrent recorders: each field is loaded
// atomically, so a snapshot taken mid-storm must never exceed the
// totals written so far, and invariants that hold at every quiescent
// point (admitted ≥ completed+failed counted *for admitted work*)
// must hold after the storm settles.
func TestAdmissionCountersConcurrentSnapshot(t *testing.T) {
	var c AdmissionCounters
	const workers, perWorker = 8, 1000
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot reader racing the writers: no torn/negative values, and
	// counts never exceed the final totals.
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := c.Snapshot()
			for name, v := range map[string]int64{
				"admitted": s.Admitted, "rejected": s.Rejected, "queued": s.Queued,
				"expired": s.Expired, "completed": s.Completed, "failed": s.Failed,
			} {
				if v < 0 || v > workers*perWorker {
					t.Errorf("snapshot %s = %d out of range", name, v)
					return
				}
			}
			if s.Completed > s.Admitted {
				t.Errorf("snapshot shows %d completed > %d admitted", s.Completed, s.Admitted)
				return
			}
			if s.QueueWait < 0 {
				t.Errorf("negative queue wait %v", s.QueueWait)
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < perWorker; i++ {
				// Admit strictly before completing, so the reader's
				// completed ≤ admitted invariant holds at every cut.
				c.Admitted.Add(1)
				c.AddQueueWait(time.Microsecond)
				c.Completed.Add(1)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	s := c.Snapshot()
	if s.Admitted != workers*perWorker || s.Completed != workers*perWorker {
		t.Fatalf("final snapshot lost updates: %+v", s)
	}
	if s.QueueWait != time.Duration(workers*perWorker)*time.Microsecond {
		t.Fatalf("queue wait = %v, want %v", s.QueueWait, time.Duration(workers*perWorker)*time.Microsecond)
	}
	sum := s.Add(s)
	if sum.Admitted != 2*s.Admitted || sum.QueueWait != 2*s.QueueWait {
		t.Fatalf("Add not field-wise: %+v", sum)
	}
}
