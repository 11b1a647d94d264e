package engine_test

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/skipper"
	"repro/internal/workload"
)

// TestPlanWalksRenderNoLabel: finding the scans and draining a Q5 pull plan
// never renders an EXPLAIN label — a label is built only when somebody
// prints the plan.
func TestPlanWalksRenderNoLabel(t *testing.T) {
	ds := workload.TPCH(0, workload.TPCHConfig{SF: 4, RowsPerObject: 12, Seed: 2})
	spec := workload.Q5(ds.Catalog)
	plan, err := skipper.BuildPullPlan(engine.NewTestCtx(ds.Store), spec.Join)
	if err != nil {
		t.Fatal(err)
	}
	spy := &engine.LabelSpy{Iterator: spec.Shape(plan)}
	if got := len(engine.SeqScans(spy)); got != len(spec.Join.Relations) {
		t.Fatalf("SeqScans found %d scans under the spy, want %d", got, len(spec.Join.Relations))
	}
	if _, err := engine.Collect(spy); err != nil {
		t.Fatal(err)
	}
	if spy.Calls != 0 {
		t.Fatalf("walking and draining the plan rendered %d labels, want 0", spy.Calls)
	}
	// The spy is live: printing the plan asks every node once.
	out := engine.Explain(spy)
	if spy.Calls != 1 || strings.Count(out, "SeqScan") != len(spec.Join.Relations) {
		t.Fatalf("Explain asked the spy %d times and printed:\n%s", spy.Calls, out)
	}
}
