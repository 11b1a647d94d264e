package experiments

import (
	"testing"
	"time"
)

// TestFaultSweepQuick runs the `skipperbench -report faults` scenarios at
// quick scale and asserts the faulted rows actually injected, retried and degraded, and the
// crash row crashed and recovered.
func TestFaultSweepQuick(t *testing.T) {
	p := Quick()
	pts, err := p.FaultSweepData()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("sweep produced %d points, want 5", len(pts))
	}
	clean := pts[0]
	if clean.Label != "clean" || clean.Transient+clean.Corrupt+clean.Stalls != 0 || clean.Retries != 0 {
		t.Fatalf("clean row recorded fault work: %+v", clean)
	}
	var sawInjection, sawRetry bool
	for _, pt := range pts[1 : len(pts)-1] {
		if pt.Transient+pt.Corrupt+pt.Stalls > 0 {
			sawInjection = true
		}
		if pt.Retries > 0 {
			sawRetry = true
			if pt.DeviceGets <= clean.DeviceGets {
				t.Errorf("%s: retries %d yet device GETs %d did not exceed clean %d",
					pt.Label, pt.Retries, pt.DeviceGets, clean.DeviceGets)
			}
		}
		// Degradation is measured, never negative: surviving faults may
		// cost time but the schedule cannot beat the clean run.
		if pt.Makespan < clean.Makespan {
			t.Errorf("%s: faulted makespan %v beat clean %v", pt.Label, pt.Makespan, clean.Makespan)
		}
	}
	if !sawInjection {
		t.Error("no fault-rate row injected anything — the sweep is vacuous")
	}
	if !sawRetry {
		t.Error("no fault-rate row retried anything — recovery never ran")
	}
	crash := pts[len(pts)-1]
	if crash.Label != "crash+restart" || crash.Crashes != 1 || crash.Restarts != 1 {
		t.Fatalf("crash row did not crash and restart exactly once: %+v", crash)
	}
	if crash.Retries == 0 || crash.Backoff == 0 {
		t.Fatalf("crash row recovered without retries/backoff: %+v", crash)
	}
	if crash.Makespan < clean.Makespan+30*time.Second {
		t.Fatalf("crash row makespan %v does not absorb the 30s downtime (clean %v)", crash.Makespan, clean.Makespan)
	}
}
