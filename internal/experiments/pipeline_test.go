package experiments

import "testing"

// TestPipelineSweepQuick runs the `skipperbench -report pipeline` path at
// quick scale — the four measurement points — and asserts the
// pipeline-on runs actually prefetched, consumed what they prefetched, and
// strictly improved the simulated makespan on both engines.
func TestPipelineSweepQuick(t *testing.T) {
	m := quick(t, "pipeline")
	if m.Len() != 4 {
		t.Fatalf("sweep produced %d points, want 4", m.Len())
	}
	issued, served, useful := m.Col("prefetched"), m.Col("pf served"), m.Col("pf useful")
	span, wall := m.Col("makespan (s)"), m.Col("wall (ms)")
	for off := 0; off < m.Len(); off += 2 {
		on, mode := off+1, m.Keys(off)[0]
		if m.Keys(off)[1] != "off" || m.Keys(on)[1] != "on" {
			t.Fatalf("point order wrong: %v / %v", m.Keys(off), m.Keys(on))
		}
		if m.Keys(on)[0] != mode {
			t.Fatalf("mode mismatch: %v vs %v", mode, m.Keys(on)[0])
		}
		if issued[off]+served[off]+useful[off] != 0 {
			t.Fatalf("%v pipeline-off point recorded prefetch work: %v/%v/%v", mode, issued[off], served[off], useful[off])
		}
		if issued[on] == 0 {
			t.Fatalf("%v pipeline-on point issued no prefetches", mode)
		}
		if served[on]+useful[on] == 0 {
			t.Fatalf("%v: no prefetch was ever consumed: %v issued", mode, issued[on])
		}
		// Prefetch discloses demand early: the rank scheduler batches group
		// switches across present and future queries.
		if span[on] >= span[off] {
			t.Fatalf("%v: prefetch did not improve makespan: %v >= %v", mode, span[on], span[off])
		}
		if wall[on] <= 0 || wall[off] <= 0 {
			t.Fatalf("%v: missing wall-clock measurement", mode)
		}
	}
}
