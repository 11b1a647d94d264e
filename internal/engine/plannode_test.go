package engine_test

import (
	"reflect"
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

// TestQ5JoinsCarryLiveColumns: each HashJoin of Q5's pull plan keeps in its
// build store exactly the columns read above it or keyed on by it — where
// it kept the 2, 5, 9, 11 and 14 columns of the legs joined so far — and
// EXPLAIN says how many of its inputs' columns a join carries.
func TestQ5JoinsCarryLiveColumns(t *testing.T) {
	ds := workload.TPCH(0, workload.TPCHConfig{SF: 4, RowsPerObject: 12, Seed: 2})
	spec := workload.Q5(ds.Catalog)
	plan, err := skipper.BuildPullPlan(engine.NewTestCtx(ds.Store), spec.Join)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{ // the top join first
		{"c_nationkey", "l_extendedprice", "l_discount", "s_nationkey", "n_regionkey", "n_name"},
		{"c_nationkey", "l_extendedprice", "l_discount", "s_nationkey"},
		{"c_nationkey", "l_suppkey", "l_extendedprice", "l_discount"},
		{"c_nationkey", "o_orderkey"},
		{"c_custkey", "c_nationkey"},
	}
	joins := engine.HashJoins(plan)
	if len(joins) != len(want) {
		t.Fatalf("Q5's pull plan has %d joins, want %d", len(joins), len(want))
	}
	for i, j := range joins {
		if got := engine.BuildColumns(j); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("join %d keeps %v in its build store, want %v", i, got, want[i])
		}
	}
	if _, err := engine.Collect(spec.Shape(plan)); err != nil {
		t.Fatal(err)
	}
	top := "HashJoin on n_regionkey=r_regionkey [carry 5/7 cols: c_nationkey,l_extendedprice,l_discount,s_nationkey,n_name]"
	if out := engine.Explain(plan); !strings.Contains(out, top) {
		t.Fatalf("EXPLAIN lacks %q:\n%s", top, out)
	}
}
