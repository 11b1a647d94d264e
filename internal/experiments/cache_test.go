package experiments

import "testing"

// TestCacheSweepQuick runs the `skipperbench -report cache` budget sweep
// at quick scale and asserts the cache actually removes device traffic on
// the repeated-query multi-tenant workload.
func TestCacheSweepQuick(t *testing.T) {
	m := quick(t, "cache")
	if m.Len() < 3 {
		t.Fatalf("sweep produced %d points", m.Len())
	}
	off, best := 0, m.Len()-1
	gets, hits, sw, span := m.Col("device GETs"), m.Col("cache hits"), m.Col("switches"), m.Col("makespan (s)")
	if m.Keys(off)[0] != "off" || hits[off] != 0 {
		t.Fatalf("baseline point not cache-off: %v hits at budget %s", hits[off], m.Keys(off)[0])
	}
	if hits[best] == 0 {
		t.Fatalf("full-footprint budget %s produced no hits", m.Keys(best)[0])
	}
	if gets[best] >= gets[off] {
		t.Fatalf("device GETs did not drop: %v at budget %s vs %v off", gets[best], m.Keys(best)[0], gets[off])
	}
	if sw[best] > sw[off] {
		t.Fatalf("switches rose with cache: %v vs %v", sw[best], sw[off])
	}
	if span[best] >= span[off] {
		t.Fatalf("makespan did not improve: %v vs %v", span[best], span[off])
	}
	// Budgets are swept ascending; device traffic must be monotone
	// non-increasing as the cache grows.
	for i := 1; i < len(gets); i++ {
		if gets[i] > gets[i-1] {
			t.Fatalf("device GETs rose with budget: %v at %s -> %v at %s", gets[i-1], m.Keys(i - 1)[0], gets[i], m.Keys(i)[0])
		}
	}
}

// TestCacheReportRenders exercises the figure rendering.
func TestCacheReportRenders(t *testing.T) {
	f := quick(t, "cache").Figure()
	if len(f.Rows) == 0 || len(f.Columns) != 8 {
		t.Fatalf("unexpected figure shape: %d rows, %d cols", len(f.Rows), len(f.Columns))
	}
	if f.CSV() == "" || f.String() == "" {
		t.Fatal("empty rendering")
	}
}
