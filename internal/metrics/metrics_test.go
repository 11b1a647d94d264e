package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/csd"
)

func iv(from, to int) csd.Interval {
	return csd.Interval{From: time.Duration(from) * time.Second, To: time.Duration(to) * time.Second}
}

func TestStretch(t *testing.T) {
	if s := Stretch(20*time.Second, 10*time.Second); s != 2 {
		t.Fatalf("stretch %v", s)
	}
	if s := Stretch(time.Second, 0); !math.IsInf(s, 1) {
		t.Fatalf("zero ideal stretch %v", s)
	}
}

func TestL2Norm(t *testing.T) {
	if got := L2Norm([]float64{3, 4}); got != 5 {
		t.Fatalf("l2 %v", got)
	}
	if got := L2Norm(nil); got != 0 {
		t.Fatalf("empty l2 %v", got)
	}
}

func TestMax(t *testing.T) {
	if got := Max([]float64{1, 7, 3}); got != 7 {
		t.Fatalf("max %v", got)
	}
}

func TestTotalMergesOverlaps(t *testing.T) {
	total := Total([]csd.Interval{iv(0, 10), iv(5, 15), iv(20, 25)})
	if total != 20*time.Second {
		t.Fatalf("total %v, want 20s", total)
	}
}

func TestOverlapBasic(t *testing.T) {
	a := []csd.Interval{iv(0, 10), iv(20, 30)}
	b := []csd.Interval{iv(5, 25)}
	if got := Overlap(a, b); got != 10*time.Second {
		t.Fatalf("overlap %v, want 10s", got)
	}
}

func TestOverlapDisjoint(t *testing.T) {
	if got := Overlap([]csd.Interval{iv(0, 5)}, []csd.Interval{iv(5, 9)}); got != 0 {
		t.Fatalf("touching intervals overlap %v", got)
	}
}

func TestOverlapUnsortedInputs(t *testing.T) {
	a := []csd.Interval{iv(20, 30), iv(0, 10)}
	b := []csd.Interval{iv(25, 40), iv(2, 4)}
	if got := Overlap(a, b); got != 7*time.Second {
		t.Fatalf("overlap %v, want 7s", got)
	}
}

// Property: overlap is symmetric and bounded by each side's total.
func TestOverlapProperties(t *testing.T) {
	gen := func(seed int64) []csd.Interval {
		var out []csd.Interval
		x := seed
		next := func(n int64) int64 {
			x = x*6364136223846793005 + 1442695040888963407
			v := x % n
			if v < 0 {
				v += n
			}
			return v
		}
		for i := int64(0); i < 1+next(6); i++ {
			from := next(100)
			out = append(out, iv(int(from), int(from+1+next(20))))
		}
		return out
	}
	f := func(s1, s2 int64) bool {
		a, b := gen(s1), gen(s2)
		ab, ba := Overlap(a, b), Overlap(b, a)
		if ab != ba {
			return false
		}
		return ab <= Total(a) && ab <= Total(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeBreakdown(t *testing.T) {
	// 100 s total; 40 s processing, 2 s fuse; stalls cover [40,98);
	// switches at [50,60) and [70,80) fall inside the stall.
	b := Compute(
		100*time.Second, 40*time.Second, 2*time.Second,
		[]csd.Interval{iv(40, 98)},
		[]csd.Interval{iv(50, 60), iv(70, 80)},
	)
	if b.Switch != 20*time.Second {
		t.Fatalf("switch %v", b.Switch)
	}
	if b.Transfer != 38*time.Second {
		t.Fatalf("transfer %v", b.Transfer)
	}
	if got := Percent(b.Switch, b.Total); got != 20 {
		t.Fatalf("switch%% %v", got)
	}
}

func TestSwitchOutsideStallNotAttributed(t *testing.T) {
	// A switch that happens while the client is computing (not stalled)
	// must not be charged to the client.
	b := Compute(
		50*time.Second, 30*time.Second, 0,
		[]csd.Interval{iv(30, 50)},
		[]csd.Interval{iv(0, 10)},
	)
	if b.Switch != 0 {
		t.Fatalf("switch %v, want 0", b.Switch)
	}
	if b.Transfer != 20*time.Second {
		t.Fatalf("transfer %v", b.Transfer)
	}
}

func TestPercentZeroTotal(t *testing.T) {
	if got := Percent(time.Second, 0); got != 0 {
		t.Fatalf("percent %v", got)
	}
}

func TestHitRatio(t *testing.T) {
	if got := HitRatio(0, 0); got != 0 {
		t.Fatalf("no traffic: %v", got)
	}
	if got := HitRatio(3, 1); got != 0.75 {
		t.Fatalf("3/4: %v", got)
	}
	if got := HitRatio(5, 0); got != 1 {
		t.Fatalf("all hits: %v", got)
	}
}

func TestPruneRatio(t *testing.T) {
	if got := PruneRatio(0, 0); got != 0 {
		t.Fatalf("no candidates: %v", got)
	}
	if got := PruneRatio(12, 45); got <= 0.78 || got >= 0.80 {
		t.Fatalf("12 issued / 45 skipped: %v", got)
	}
	if got := PruneRatio(0, 5); got != 1 {
		t.Fatalf("all skipped: %v", got)
	}
}
