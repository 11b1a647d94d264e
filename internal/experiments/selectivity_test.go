package experiments

import (
	"testing"

	"repro/internal/skipper"
)

// TestSelectivitySweep: narrowing the predicate window must
// monotonically-ish increase skipping; the widest window skips nothing
// beyond empties.
func TestSelectivitySweep(t *testing.T) {
	p := Quick()
	pts, err := p.SelectivitySweepData()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(selectivityWindows) {
		t.Fatalf("%d points", len(pts))
	}
	widest, tightest := pts[0], pts[len(pts)-1]
	if widest.Skipped != 0 {
		t.Fatalf("whole-range window skipped %d segments", widest.Skipped)
	}
	if tightest.Skipped == 0 {
		t.Fatal("tightest window skipped nothing")
	}
	if tightest.GetsPruned >= tightest.GetsUnpruned {
		t.Fatalf("tight window: %d GETs pruned vs %d unpruned", tightest.GetsPruned, tightest.GetsUnpruned)
	}
	if tightest.TimePruned >= tightest.TimeUnpruned {
		t.Fatalf("tight window: pruning did not cut virtual time (%v vs %v)", tightest.TimePruned, tightest.TimeUnpruned)
	}
}

// TestPruneReport: the pruning report must cover both engines and both
// workloads, and show a strict request reduction on each.
func TestPruneReport(t *testing.T) {
	p := Quick()
	pts, err := p.PruneReportData()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d report rows", len(pts))
	}
	seen := map[skipper.Mode]int{}
	for _, pt := range pts {
		seen[pt.Mode]++
		if pt.Skipped == 0 {
			t.Fatalf("%s %v: nothing skipped", pt.Query, pt.Mode)
		}
		if pt.GetsPruned >= pt.GetsUnpruned {
			t.Fatalf("%s %v: GETs %d pruned vs %d unpruned", pt.Query, pt.Mode, pt.GetsPruned, pt.GetsUnpruned)
		}
	}
	if seen[skipper.ModeVanilla] != 2 || seen[skipper.ModeSkipper] != 2 {
		t.Fatalf("mode coverage %v", seen)
	}
}
