package experiments

import "testing"

// TestPipelineSweepQuick runs the `skipperbench -report pipeline` path at
// quick scale — the four measurement points — and asserts the
// pipeline-on runs actually prefetched, consumed what they prefetched, and
// strictly improved the simulated makespan on both engines.
func TestPipelineSweepQuick(t *testing.T) {
	p := Quick()
	pts, err := p.PipelineSweepData()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("sweep produced %d points, want 4", len(pts))
	}
	for i := 0; i < len(pts); i += 2 {
		off, on := pts[i], pts[i+1]
		if off.On || !on.On {
			t.Fatalf("point order wrong: %+v / %+v", off, on)
		}
		if off.Mode != on.Mode {
			t.Fatalf("mode mismatch: %v vs %v", off.Mode, on.Mode)
		}
		if off.PrefetchIssued+off.PrefetchServed+off.PrefetchUseful != 0 {
			t.Fatalf("%v pipeline-off point recorded prefetch work: %+v", off.Mode, off)
		}
		if on.PrefetchIssued == 0 {
			t.Fatalf("%v pipeline-on point issued no prefetches: %+v", on.Mode, on)
		}
		if on.PrefetchServed+on.PrefetchUseful == 0 {
			t.Fatalf("%v: no prefetch was ever consumed: %+v", on.Mode, on)
		}
		// Prefetch discloses demand early: the rank scheduler batches group
		// switches across present and future queries.
		if on.Makespan >= off.Makespan {
			t.Fatalf("%v: prefetch did not improve makespan: %v >= %v", on.Mode, on.Makespan, off.Makespan)
		}
		if on.Wall <= 0 || off.Wall <= 0 {
			t.Fatalf("%v: missing wall-clock measurement", on.Mode)
		}
	}
}
