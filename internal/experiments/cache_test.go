package experiments

import "testing"

// TestCacheSweepQuick runs the `skipperbench -report cache` budget sweep
// at quick scale and asserts the cache actually removes device traffic on
// the repeated-query multi-tenant workload.
func TestCacheSweepQuick(t *testing.T) {
	p := Quick()
	pts, err := p.CacheSweepData()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 3 {
		t.Fatalf("sweep produced %d points", len(pts))
	}
	off, best := pts[0], pts[len(pts)-1]
	if off.BudgetObjects != 0 || off.Hits != 0 {
		t.Fatalf("baseline point not cache-off: %+v", off)
	}
	if best.Hits == 0 {
		t.Fatalf("full-footprint budget produced no hits: %+v", best)
	}
	if best.DeviceGets >= off.DeviceGets {
		t.Fatalf("device GETs did not drop: %d at budget %d vs %d off",
			best.DeviceGets, best.BudgetObjects, off.DeviceGets)
	}
	if best.Switches > off.Switches {
		t.Fatalf("switches rose with cache: %d vs %d", best.Switches, off.Switches)
	}
	if best.Makespan >= off.Makespan {
		t.Fatalf("makespan did not improve: %v vs %v", best.Makespan, off.Makespan)
	}
	// Budgets are swept ascending; device traffic must be monotone
	// non-increasing as the cache grows.
	for i := 1; i < len(pts); i++ {
		if pts[i].DeviceGets > pts[i-1].DeviceGets {
			t.Fatalf("device GETs rose with budget: %+v -> %+v", pts[i-1], pts[i])
		}
	}
}

// TestCacheReportRenders exercises the figure rendering.
func TestCacheReportRenders(t *testing.T) {
	p := Quick()
	f, err := p.CacheReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) == 0 || len(f.Columns) != 8 {
		t.Fatalf("unexpected figure shape: %d rows, %d cols", len(f.Rows), len(f.Columns))
	}
	if f.CSV() == "" || f.String() == "" {
		t.Fatal("empty rendering")
	}
}
