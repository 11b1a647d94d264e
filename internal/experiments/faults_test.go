package experiments

import (
	"testing"
	"time"
)

// TestFaultSweepQuick runs the `skipperbench -report faults` scenarios at
// quick scale and asserts the faulted rows actually injected, retried and degraded, and the
// crash row crashed and recovered.
func TestFaultSweepQuick(t *testing.T) {
	m := quick(t, "faults")
	if m.Len() != 5 {
		t.Fatalf("sweep produced %d points, want 5", m.Len())
	}
	injected := func(r int) float64 { return m.At(r, "transient") + m.At(r, "corrupt") + m.At(r, "stalls") }
	retries, gets, span := m.Col("retries"), m.Col("device GETs"), m.Col("makespan (s)")
	const clean = 0
	if m.Keys(clean)[0] != "clean" || injected(clean) != 0 || retries[clean] != 0 {
		t.Fatalf("clean row recorded fault work: %v injected, %v retries", injected(clean), retries[clean])
	}
	var sawInjection, sawRetry bool
	for r := 1; r < m.Len()-1; r++ {
		label := m.Keys(r)[0]
		if injected(r) > 0 {
			sawInjection = true
		}
		if retries[r] > 0 {
			sawRetry = true
			if gets[r] <= gets[clean] {
				t.Errorf("%s: retries %v yet device GETs %v did not exceed clean %v",
					label, retries[r], gets[r], gets[clean])
			}
		}
		// Degradation is measured, never negative: surviving faults may
		// cost time but the schedule cannot beat the clean run.
		if span[r] < span[clean] {
			t.Errorf("%s: faulted makespan %v beat clean %v", label, time.Duration(span[r]), time.Duration(span[clean]))
		}
	}
	if !sawInjection {
		t.Error("no fault-rate row injected anything — the sweep is vacuous")
	}
	if !sawRetry {
		t.Error("no fault-rate row retried anything — recovery never ran")
	}
	crash := m.Len() - 1
	if m.Keys(crash)[0] != "crash+restart" || m.At(crash, "crashes") != 1 || m.At(crash, "restarts") != 1 {
		t.Fatalf("crash row did not crash and restart exactly once: %v, %v/%v", m.Keys(crash), m.At(crash, "crashes"), m.At(crash, "restarts"))
	}
	if retries[crash] == 0 || m.At(crash, "backoff (s)") == 0 {
		t.Fatalf("crash row recovered without retries/backoff: %v retries, %v backoff", retries[crash], time.Duration(m.At(crash, "backoff (s)")))
	}
	if time.Duration(span[crash]) < time.Duration(span[clean])+30*time.Second {
		t.Fatalf("crash row makespan %v does not absorb the 30s downtime (clean %v)", time.Duration(span[crash]), time.Duration(span[clean]))
	}
}
