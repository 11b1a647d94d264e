package workload_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/skipper"
	"repro/internal/sql"
	"repro/internal/workload"
)

// The tests in this file hold a query's compiled shaping stage
// (engine.Shape) to what serving needs of it: skipperd's statement cache
// hands one planned spec to every connection, so its shape is read by
// concurrent runs, and a run instantiates only per-run state.

// aggSQL exercises every stage an aggregate plans: a filter the join
// cannot apply, the aggregation, the projection, HAVING, ORDER BY and
// LIMIT.
const aggSQL = `SELECT o_orderpriority, COUNT(*) AS n, SUM(l_quantity) AS qty, MAX(l_shipdate) AS last
	FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_shipdate > o_orderdate
	GROUP BY o_orderpriority HAVING n > 1 ORDER BY qty DESC LIMIT 4`

// TestCompiledShapeConcurrentRuns: one compiled spec — an SQL aggregate,
// and Q5 — run from two goroutines at once returns, on every run, the
// rows a lone run returns. Under -race it also shows that a run writes
// nothing the shape shares.
func TestCompiledShapeConcurrentRuns(t *testing.T) {
	// Q5 selects two nations' revenue here (at 40 rows an object, none).
	gen := workload.TPCH(0, workload.TPCHConfig{SF: 8, RowsPerObject: 200, Seed: 3})
	agg, err := (&sql.Planner{Catalog: gen.Catalog}).Plan(aggSQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []skipper.QuerySpec{agg, workload.Q5(gen.Catalog)} {
		t.Run(spec.Name, func(t *testing.T) {
			want, err := workload.Evaluate(gen, spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("the query returns no rows: the runs compare nothing")
			}
			const runs = 10
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < runs; i++ {
						got, err := workload.Evaluate(gen, spec)
						if err != nil {
							t.Error(err)
							return
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("goroutine %d, run %d: %v, want %v", g, i, got, want)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestShapedAllocatesOnce: applying a compiled Q12's shaping stage to its
// join — the schema check and the aggregation and sort it instantiates —
// makes at most one allocation before Open.
func TestShapedAllocatesOnce(t *testing.T) {
	gen := workload.TPCH(0, workload.TPCHConfig{SF: 8, RowsPerObject: 40, Seed: 3})
	spec := workload.Q12(gen.Catalog)
	join, err := skipper.BuildPullPlanPruned(engine.NewTestCtx(gen.Store), spec.Join, false)
	if err != nil {
		t.Fatal(err)
	}
	var shaped engine.Iterator
	allocs := testing.AllocsPerRun(100, func() {
		if shaped, err = spec.Shaped(join); err != nil {
			t.Fatal(err)
		}
	})
	if shaped == join {
		t.Fatal("Q12's spec applied no shaping stage")
	}
	if allocs > 1 {
		t.Fatalf("spec.Shaped made %.1f allocations before Open, want at most 1", allocs)
	}
}
