package experiments

import (
	"testing"
	"time"

	"repro/internal/skipper"
)

// TestSelectivitySweep: narrowing the predicate window must
// monotonically-ish increase skipping; the widest window skips nothing
// beyond empties.
func TestSelectivitySweep(t *testing.T) {
	m := quick(t, "selectivity")
	if m.Len() != len(selectivityWindows) {
		t.Fatalf("%d points", m.Len())
	}
	widest, tightest := 0, m.Len()-1
	if s := m.At(widest, "skipped"); s != 0 {
		t.Fatalf("whole-range window skipped %v segments", s)
	}
	if m.At(tightest, "skipped") == 0 {
		t.Fatal("tightest window skipped nothing")
	}
	if on, off := m.At(tightest, "GETs (skip on)"), m.At(tightest, "GETs (skip off)"); on >= off {
		t.Fatalf("tight window: %v GETs pruned vs %v unpruned", on, off)
	}
	if on, off := m.At(tightest, "exec on (s)"), m.At(tightest, "exec off (s)"); on >= off {
		t.Fatalf("tight window: pruning did not cut virtual time (%v vs %v)", time.Duration(on), time.Duration(off))
	}
}

// TestPruneReport: the pruning report must cover both engines and both
// workloads, and show a strict request reduction on each.
func TestPruneReport(t *testing.T) {
	m := quick(t, "prune")
	if m.Len() != 4 {
		t.Fatalf("%d report rows", m.Len())
	}
	seen := map[string]int{}
	for r := 0; r < m.Len(); r++ {
		query, mode := m.Keys(r)[0], m.Keys(r)[1]
		seen[mode]++
		if m.At(r, "skipped") == 0 {
			t.Fatalf("%s %v: nothing skipped", query, mode)
		}
		if on, off := m.At(r, "GETs (skip on)"), m.At(r, "GETs (skip off)"); on >= off {
			t.Fatalf("%s %v: GETs %v pruned vs %v unpruned", query, mode, on, off)
		}
	}
	if seen[skipper.ModeVanilla.String()] != 2 || seen[skipper.ModeSkipper.String()] != 2 {
		t.Fatalf("mode coverage %v", seen)
	}
}
