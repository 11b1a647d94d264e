package sql_test

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/mjoin"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/sql"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// --- planner over a real dataset ---

func tpchPlanner(t *testing.T) (*sql.Planner, *workload.Dataset) {
	t.Helper()
	ds := workload.TPCH(0, workload.TPCHConfig{SF: 5, RowsPerObject: 30, Seed: 42})
	return &sql.Planner{Catalog: ds.Catalog}, ds
}

func runSQL(t *testing.T, pl *sql.Planner, ds *workload.Dataset, q string) []tuple.Row {
	t.Helper()
	spec, err := pl.Plan(q)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	rows, err := workload.Evaluate(ds, spec)
	if err != nil {
		t.Fatalf("run %q: %v", q, err)
	}
	return rows
}

func TestPlanSingleTableFilter(t *testing.T) {
	pl, ds := tpchPlanner(t)
	rows := runSQL(t, pl, ds, "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderpriority = '1-URGENT' AND o_orderkey <> 0")
	all := runSQL(t, pl, ds, "SELECT o_orderkey FROM orders")
	if len(rows) == 0 || len(rows) >= len(all) {
		t.Fatalf("filter returned %d of %d rows", len(rows), len(all))
	}
}

func TestPlanStarAndLimit(t *testing.T) {
	pl, ds := tpchPlanner(t)
	rows := runSQL(t, pl, ds, "SELECT * FROM nation LIMIT 5")
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	if len(rows[0]) != 3 { // n_nationkey, n_regionkey, n_name
		t.Fatalf("star arity %d", len(rows[0]))
	}
}

func TestPlanTwoTableJoin(t *testing.T) {
	pl, ds := tpchPlanner(t)
	rows := runSQL(t, pl, ds,
		"SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey AND r_name = 'ASIA'")
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r[1].AsString() != "ASIA" {
			t.Fatalf("row %v", r)
		}
	}
}

func TestPlanJoinOnSyntax(t *testing.T) {
	pl, ds := tpchPlanner(t)
	a := runSQL(t, pl, ds,
		"SELECT n_name FROM nation JOIN region ON n_regionkey = r_regionkey WHERE r_name = 'EUROPE' ORDER BY n_name")
	b := runSQL(t, pl, ds,
		"SELECT n_name FROM nation, region WHERE n_regionkey = r_regionkey AND r_name = 'EUROPE' ORDER BY n_name")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("JOIN ON differs from comma join:\n%v\n%v", a, b)
	}
}

// The paper's five queries (workload.Q12, Q5, SSBQ1, MRJoinTask and
// NREFJoin) are SQL text planned by this package. Each is checked against
// its reference plan below, the join and shaping stage built by hand. The
// references read every column (Cols nil): the planner's projection
// changes widths, never rows (workload's TestColsChangeWidthNotResults).

// checkEquivalent plans workload query q over ds and compares its rows, on
// the local evaluator, with those of the reference plan ref.
func checkEquivalent(t *testing.T, ds *workload.Dataset, q, ref func(*catalog.Catalog) skipper.QuerySpec) {
	t.Helper()
	spec, want := q(ds.Catalog), ref(ds.Catalog)
	if spec.Name != want.Name || spec.Join.ID != spec.Name {
		t.Fatalf("spec %q with join %q, want both %q", spec.Name, spec.Join.ID, want.Name)
	}
	got, err := workload.Evaluate(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := workload.Evaluate(ds, want)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatalf("%s returned no rows; the comparison is vacuous", spec.Name)
	}
	if !reflect.DeepEqual(render(got), render(wantRows)) {
		t.Fatalf("SQL %s differs from its reference plan:\n%v\n%v", spec.Name, render(got), render(wantRows))
	}
}

// refSpec completes a reference plan: the spec of join shaped by shape.
func refSpec(name string, join *mjoin.Query, shape func(*tuple.Schema) *engine.Shape) skipper.QuerySpec {
	out := join.OutputSchema()
	return skipper.QuerySpec{Name: name, Join: join, Shape: shape(out).Apply, Bound: out}
}

func refQ12(cat *catalog.Catalog) skipper.QuerySpec {
	lineitem, orders := cat.MustTable("lineitem"), cat.MustTable("orders")
	ls := lineitem.Schema
	join := &mjoin.Query{
		ID: "q12",
		Relations: []mjoin.Relation{
			{Table: lineitem, Filter: expr.NewAnd(
				expr.In{Needle: expr.Bind(ls, "l_shipmode"), Set: []tuple.Value{tuple.Str("MAIL"), tuple.Str("SHIP")}},
				expr.Cmp{Op: expr.LT, L: expr.Bind(ls, "l_commitdate"), R: expr.Bind(ls, "l_receiptdate")},
				expr.Cmp{Op: expr.LT, L: expr.Bind(ls, "l_shipdate"), R: expr.Bind(ls, "l_commitdate")},
				expr.ColBetween(ls, "l_receiptdate", tuple.Date(1994, 1, 1), tuple.Date(1994, 12, 31)),
			)},
			{Table: orders},
		},
		Joins: []mjoin.JoinCond{{Rel: 1, LeftCol: "l_orderkey", RightCol: "o_orderkey"}},
	}
	return refSpec("tpch-q12", join, func(out *tuple.Schema) *engine.Shape {
		highPri := expr.In{Needle: expr.Bind(out, "o_orderpriority"), Set: []tuple.Value{tuple.Str("1-URGENT"), tuple.Str("2-HIGH")}}
		count := func(high, low int64) expr.Expr {
			return expr.Case{Branches: []expr.CaseBranch{{When: highPri, Then: expr.Lit(tuple.Int(high))}}, Else: expr.Lit(tuple.Int(low))}
		}
		return engine.NewShape(out).Aggregate(
			[]engine.GroupCol{{Name: "l_shipmode", Kind: tuple.KindString, E: expr.Bind(out, "l_shipmode")}},
			[]engine.AggSpec{
				{Kind: engine.AggSum, Name: "high_line_count", Arg: count(1, 0)},
				{Kind: engine.AggSum, Name: "low_line_count", Arg: count(0, 1)},
			}).Sort([]engine.SortKey{{E: expr.NewCol(0, "l_shipmode")}})
	})
}

func refQ5(cat *catalog.Catalog) skipper.QuerySpec {
	t := cat.MustTable
	join := &mjoin.Query{
		ID: "q5",
		Relations: []mjoin.Relation{
			{Table: t("customer")},
			{Table: t("orders"), Filter: expr.ColBetween(t("orders").Schema, "o_orderdate", tuple.Date(1994, 1, 1), tuple.Date(1994, 12, 31))},
			{Table: t("lineitem")},
			{Table: t("supplier")},
			{Table: t("nation")},
			{Table: t("region"), Filter: expr.ColEq(t("region").Schema, "r_name", tuple.Str("ASIA"))},
		},
		Joins: []mjoin.JoinCond{
			{Rel: 1, LeftCol: "c_custkey", RightCol: "o_custkey"},
			{Rel: 2, LeftCol: "o_orderkey", RightCol: "l_orderkey"},
			{Rel: 3, LeftCol: "l_suppkey", RightCol: "s_suppkey"},
			{Rel: 4, LeftCol: "s_nationkey", RightCol: "n_nationkey"},
			{Rel: 5, LeftCol: "n_regionkey", RightCol: "r_regionkey"},
		},
	}
	return refSpec("tpch-q5", join, func(out *tuple.Schema) *engine.Shape {
		revenue := expr.Arith{Op: expr.Mul, L: expr.Bind(out, "l_extendedprice"),
			R: expr.Arith{Op: expr.Sub, L: expr.Lit(tuple.Float(1)), R: expr.Bind(out, "l_discount")}}
		// The join-graph cycle: customers must share the supplier's nation.
		return engine.NewShape(out).Filter(expr.Cmp{Op: expr.EQ, L: expr.Bind(out, "c_nationkey"), R: expr.Bind(out, "s_nationkey")}).
			Aggregate(
				[]engine.GroupCol{{Name: "n_name", Kind: tuple.KindString, E: expr.Bind(out, "n_name")}},
				[]engine.AggSpec{{Kind: engine.AggSum, Name: "revenue", Arg: revenue}},
			).Sort([]engine.SortKey{{E: expr.NewCol(1, "revenue"), Desc: true}})
	})
}

func refSSBQ1(cat *catalog.Catalog) skipper.QuerySpec {
	lineorder, date := cat.MustTable("lineorder"), cat.MustTable("date")
	join := &mjoin.Query{
		ID: "ssb-q1",
		Relations: []mjoin.Relation{
			{Table: lineorder, Filter: expr.NewAnd(
				expr.ColBetween(lineorder.Schema, "lo_discount", tuple.Int(1), tuple.Int(3)),
				expr.ColLT(lineorder.Schema, "lo_quantity", tuple.Int(25)),
			)},
			{Table: date, Filter: expr.ColEq(date.Schema, "d_year", tuple.Int(1993))},
		},
		Joins: []mjoin.JoinCond{{Rel: 1, LeftCol: "lo_orderdate", RightCol: "d_datekey"}},
	}
	return refSpec("ssb-q1", join, func(out *tuple.Schema) *engine.Shape {
		revenue := expr.Arith{Op: expr.Mul, L: expr.Bind(out, "lo_extendedprice"), R: expr.Bind(out, "lo_discount")}
		return engine.NewShape(out).Aggregate(nil, []engine.AggSpec{{Kind: engine.AggSum, Name: "revenue", Arg: revenue}})
	})
}

func refMRJoinTask(cat *catalog.Catalog) skipper.QuerySpec {
	rankings, uservisits := cat.MustTable("rankings"), cat.MustTable("uservisits")
	join := &mjoin.Query{
		ID: "mr-join",
		Relations: []mjoin.Relation{
			{Table: rankings},
			{Table: uservisits, Filter: expr.ColBetween(uservisits.Schema, "visit_date", tuple.Date(2000, 1, 15), tuple.Date(2000, 3, 31))},
		},
		Joins: []mjoin.JoinCond{{Rel: 1, LeftCol: "page_url", RightCol: "dest_url"}},
	}
	return refSpec("mr-join", join, func(out *tuple.Schema) *engine.Shape {
		return engine.NewShape(out).Aggregate(
			[]engine.GroupCol{{Name: "source_ip", Kind: tuple.KindString, E: expr.Bind(out, "source_ip")}},
			[]engine.AggSpec{
				{Kind: engine.AggAvg, Name: "avg_page_rank", Arg: expr.Bind(out, "page_rank")},
				{Kind: engine.AggSum, Name: "total_revenue", Arg: expr.Bind(out, "ad_revenue")},
			}).Sort([]engine.SortKey{{E: expr.NewCol(2, "total_revenue"), Desc: true}})
	})
}

func refNREFJoin(cat *catalog.Catalog) skipper.QuerySpec {
	t := cat.MustTable
	join := &mjoin.Query{
		ID: "nref-4join",
		Relations: []mjoin.Relation{
			{Table: t("sequence"), Filter: expr.ColGE(t("sequence").Schema, "seq_mw", tuple.Float(20000))},
			{Table: t("protein")},
			{Table: t("taxonomy"), Filter: expr.ColEq(t("taxonomy").Schema, "tax_kingdom", tuple.Str("Bacteria"))},
			{Table: t("sourcedb"), Filter: expr.In{
				Needle: expr.Bind(t("sourcedb").Schema, "src_name"),
				Set:    []tuple.Value{tuple.Str("SwissProt"), tuple.Str("PIR")},
			}},
		},
		Joins: []mjoin.JoinCond{
			{Rel: 1, LeftCol: "seq_pid", RightCol: "p_id"},
			{Rel: 2, LeftCol: "p_taxid", RightCol: "tax_id"},
			{Rel: 3, LeftCol: "p_sourceid", RightCol: "src_id"},
		},
	}
	return refSpec("nref-4join", join, func(out *tuple.Schema) *engine.Shape {
		return engine.NewShape(out).Aggregate(nil, []engine.AggSpec{{Kind: engine.AggCount, Name: "matching_sequences"}})
	})
}

func TestPlanQ12Equivalent(t *testing.T) {
	_, ds := tpchPlanner(t)
	checkEquivalent(t, ds, workload.Q12, refQ12)
}

func TestPlanQ5Equivalent(t *testing.T) {
	// Denser than tpchPlanner's dataset, on which Q5 selects no row.
	checkEquivalent(t, workload.TPCH(0, workload.TPCHConfig{SF: 8, RowsPerObject: 200, Seed: 42}), workload.Q5, refQ5)
}

func TestPlanSSBQ1Equivalent(t *testing.T) {
	checkEquivalent(t, workload.SSB(0, workload.SSBConfig{SF: 4, RowsPerObject: 60, Seed: 3}), workload.SSBQ1, refSSBQ1)
}

func TestPlanMRJoinTaskEquivalent(t *testing.T) {
	checkEquivalent(t, workload.MRBench(0, workload.MRBenchConfig{TotalGB: 6, RowsPerObject: 40, Seed: 5}), workload.MRJoinTask, refMRJoinTask)
}

func TestPlanNREFJoinEquivalent(t *testing.T) {
	checkEquivalent(t, workload.NREF(0, workload.NREFConfig{TotalGB: 6, RowsPerObject: 40, Seed: 9}), workload.NREFJoin, refNREFJoin)
}

// explainShaped renders the pull plan of q over ds with its shaping stage
// applied, as EXPLAIN does.
func explainShaped(t *testing.T, pl *sql.Planner, ds *workload.Dataset, q string) (string, []string) {
	t.Helper()
	spec, err := pl.Plan(q)
	if err != nil {
		t.Fatalf("plan %q: %v", q, err)
	}
	it, err := skipper.BuildPullPlan(engine.NewTestCtx(ds.Store), spec.Join)
	if err != nil {
		t.Fatal(err)
	}
	if it, err = spec.Shaped(it); err != nil {
		t.Fatal(err)
	}
	return engine.Explain(it), it.Schema().ColumnNames()
}

// A select list of the GROUP BY columns, in order and not renamed, then the
// aggregates is HashAgg's own output: the aggregates take their names and
// no Project follows. Any other list still gets one.
func TestAggregateAddsNoRenamingProject(t *testing.T) {
	pl, ds := tpchPlanner(t)
	for _, c := range []struct {
		query   string
		project bool
		names   []string
	}{
		{"SELECT l_shipmode, COUNT(*) AS n FROM lineitem GROUP BY l_shipmode", false, []string{"l_shipmode", "n"}},
		{"SELECT COUNT(*) AS n FROM lineitem", false, []string{"n"}},
		{"SELECT COUNT(*) AS n, l_shipmode FROM lineitem GROUP BY l_shipmode", true, []string{"n", "l_shipmode"}},
		{"SELECT l_shipmode AS mode, COUNT(*) AS n FROM lineitem GROUP BY l_shipmode", true, []string{"mode", "n"}},
		{"SELECT l_shipmode FROM lineitem GROUP BY l_shipmode, l_quantity", true, []string{"l_shipmode"}},
	} {
		plan, names := explainShaped(t, pl, ds, c.query)
		if got := strings.Contains(plan, "Project"); got != c.project {
			t.Errorf("%q: Project in plan = %v, want %v:\n%s", c.query, got, c.project, plan)
		}
		if !reflect.DeepEqual(names, c.names) {
			t.Errorf("%q: output columns %v, want %v", c.query, names, c.names)
		}
	}
}

// MR-Bench's columns are named in snake case, which the lexer's lowercased
// identifiers can reach: a query over them plans, and both engines return
// what the local evaluator returns.
func TestPlanMRBenchColumns(t *testing.T) {
	ds := workload.MRBench(0, workload.MRBenchConfig{TotalGB: 6, RowsPerObject: 40, Seed: 5})
	spec, err := (&sql.Planner{Catalog: ds.Catalog}).Plan(`
		SELECT dest_url, COUNT(*) AS visits, SUM(ad_revenue) AS revenue
		FROM uservisits
		WHERE visit_date BETWEEN '2000-01-01' AND '2000-06-30'
		GROUP BY dest_url
		ORDER BY dest_url`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.Evaluate(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no visits in the window; the comparison is vacuous")
	}
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		st := make(map[segment.ObjectID]*segment.Segment)
		ds.MergeInto(st)
		c := &skipper.Client{Tenant: 0, Mode: mode, Catalog: ds.Catalog,
			Queries: []skipper.QuerySpec{spec}, CacheObjects: 3, KeepResults: true}
		res, err := (&skipper.Cluster{Clients: []*skipper.Client{c}, Store: st}).Run()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := res.Clients[0].PerQuery[0].Results; !reflect.DeepEqual(render(got), render(want)) {
			t.Fatalf("%v differs from the local evaluator:\n%v\n%v", mode, render(got), render(want))
		}
	}
}

func render(rows []tuple.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

func TestPlanRunsOnBothEngines(t *testing.T) {
	pl, ds := tpchPlanner(t)
	spec, err := pl.Plan("SELECT COUNT(*) FROM lineitem, orders WHERE l_orderkey = o_orderkey AND l_quantity < 10")
	if err != nil {
		t.Fatal(err)
	}
	local, err := workload.Evaluate(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		st := make(map[segment.ObjectID]*segment.Segment)
		ds.MergeInto(st)
		c := &skipper.Client{Tenant: 0, Mode: mode, Catalog: ds.Catalog,
			Queries: []skipper.QuerySpec{spec}, CacheObjects: 4}
		res, err := (&skipper.Cluster{Clients: []*skipper.Client{c}, Store: st}).Run()
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Clients[0].Rows != int64(len(local)) {
			t.Fatalf("%v: %d rows vs local %d", mode, res.Clients[0].Rows, len(local))
		}
	}
}

func TestPlanAggregatesAndHaving(t *testing.T) {
	pl, ds := tpchPlanner(t)
	rows := runSQL(t, pl, ds, `
		SELECT o_orderpriority, COUNT(*) AS n, AVG(o_totalprice) AS avg_price,
		       MIN(o_totalprice) AS lo, MAX(o_totalprice) AS hi
		FROM orders
		GROUP BY o_orderpriority
		HAVING n > 0
		ORDER BY o_orderpriority`)
	if len(rows) == 0 || len(rows) > 5 {
		t.Fatalf("%d groups", len(rows))
	}
	for _, r := range rows {
		lo, hi, avg := r[3].AsFloat(), r[4].AsFloat(), r[2].AsFloat()
		if lo > avg || avg > hi {
			t.Fatalf("min/avg/max violated: %v", r)
		}
	}
	// Output ordered by group key.
	var names []string
	for _, r := range rows {
		names = append(names, r[0].AsString())
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("not ordered: %v", names)
	}
}

func TestPlanPrefixLike(t *testing.T) {
	pl, ds := tpchPlanner(t)
	rows := runSQL(t, pl, ds, "SELECT n_name FROM nation WHERE n_name LIKE 'UNITED%' ORDER BY n_name")
	if len(rows) != 2 {
		t.Fatalf("rows %v", render(rows))
	}
	for _, r := range rows {
		if !strings.HasPrefix(r[0].AsString(), "UNITED") {
			t.Fatalf("row %v", r)
		}
	}
}

func TestPlanErrors(t *testing.T) {
	pl, _ := tpchPlanner(t)
	bad := map[string]string{
		"unknown table":     "SELECT x FROM nosuch",
		"unknown column":    "SELECT nosuch FROM nation",
		"cross join":        "SELECT n_name FROM nation, region WHERE n_nationkey > 0",
		"bad group item":    "SELECT o_totalprice, COUNT(*) FROM orders GROUP BY o_orderpriority",
		"full like":         "SELECT n_name FROM nation WHERE n_name LIKE '%X%'",
		"case without else": "SELECT CASE WHEN n_nationkey = 1 THEN 2 END FROM nation",
		"bad qualifier":     "SELECT region.n_name FROM nation, region WHERE n_regionkey = r_regionkey",
	}
	for label, q := range bad {
		if _, err := pl.Plan(q); err == nil {
			t.Errorf("%s accepted: %q", label, q)
		}
	}
}

// TestPlanRejectsDuplicateOutputNames: the shaping stage's schemas are
// keyed by column name, so a statement whose output or GROUP BY names one
// column twice is a plan error naming it (it used to panic in the schema
// constructor); aliases that tell the copies apart still plan and run.
func TestPlanRejectsDuplicateOutputNames(t *testing.T) {
	pl, ds := tpchPlanner(t)
	for q, col := range map[string]string{
		"SELECT n_name, n_name FROM nation":                                                                     "n_name",
		"SELECT l_shipmode, COUNT(*) AS l_shipmode FROM lineitem GROUP BY l_shipmode":                           "l_shipmode",
		"SELECT DISTINCT r_name, r_name FROM region":                                                            "r_name",
		"SELECT l_shipmode, COUNT(*) FROM lineitem GROUP BY l_shipmode, l_shipmode":                             "l_shipmode",
		"SELECT COUNT(*) AS n, SUM(l_quantity) AS n FROM lineitem":                                              "n",
		"SELECT n_name, COUNT(*) AS n_name FROM nation, region WHERE n_regionkey = r_regionkey GROUP BY n_name": "n_name",
	} {
		if _, err := pl.Plan(q); err == nil || !strings.Contains(err.Error(), `"`+col+`"`) {
			t.Errorf("plan %q: error %v, want one naming %q", q, err, col)
		}
	}
	spec, err := pl.Plan("SELECT n_name AS a, n_name AS b FROM nation")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := workload.Evaluate(ds, spec)
	if err != nil || len(rows) == 0 {
		t.Fatalf("aliased copies: %d rows, %v", len(rows), err)
	}
	for _, r := range rows {
		if len(r) != 2 || r[0] != r[1] {
			t.Fatalf("aliased copies differ: %v", r)
		}
	}
}

func TestPlanCycleEdgeBecomesPostFilter(t *testing.T) {
	// Q5's c_nationkey = s_nationkey closes a cycle; the planner must
	// keep the chain valid and apply the extra equality post-join.
	pl, ds := tpchPlanner(t)
	spec, err := pl.Plan(`
		SELECT COUNT(*) FROM customer, orders, lineitem, supplier
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey
		  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey`)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Join.Relations) != 4 || len(spec.Join.Joins) != 3 {
		t.Fatalf("chain shape: %d relations, %d joins", len(spec.Join.Relations), len(spec.Join.Joins))
	}
	rows, err := workload.Evaluate(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: strictly fewer matches than without the nation equality.
	spec2, err := pl.Plan(`
		SELECT COUNT(*) FROM customer, orders, lineitem, supplier
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_suppkey = s_suppkey`)
	if err != nil {
		t.Fatal(err)
	}
	rows2, err := workload.Evaluate(ds, spec2)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].AsInt() >= rows2[0][0].AsInt() {
		t.Fatalf("cycle filter did nothing: %v vs %v", rows[0], rows2[0])
	}
}

func TestPlanTableReorderingForChain(t *testing.T) {
	// FROM order lists region first; the chain must still build by
	// attaching connected tables greedily.
	pl, ds := tpchPlanner(t)
	rows := runSQL(t, pl, ds, `
		SELECT r_name, COUNT(*) AS n FROM region, nation
		WHERE n_regionkey = r_regionkey GROUP BY r_name ORDER BY r_name`)
	if len(rows) != 5 {
		t.Fatalf("groups %v", render(rows))
	}
}

func TestSelectDistinct(t *testing.T) {
	pl, ds := tpchPlanner(t)
	all := runSQL(t, pl, ds, "SELECT o_orderpriority FROM orders")
	distinct := runSQL(t, pl, ds, "SELECT DISTINCT o_orderpriority FROM orders ORDER BY o_orderpriority")
	if len(distinct) >= len(all) {
		t.Fatalf("distinct %d !< all %d", len(distinct), len(all))
	}
	if len(distinct) > 5 {
		t.Fatalf("more than 5 priorities: %v", render(distinct))
	}
	seen := map[string]bool{}
	for i, r := range distinct {
		v := r[0].AsString()
		if seen[v] {
			t.Fatalf("duplicate %q", v)
		}
		seen[v] = true
		if i > 0 && distinct[i-1][0].AsString() > v {
			t.Fatal("not ordered")
		}
	}
	if _, err := pl.Plan("SELECT DISTINCT * FROM orders"); err == nil {
		t.Fatal("DISTINCT * accepted")
	}
}

func TestDistinctAcrossJoin(t *testing.T) {
	pl, ds := tpchPlanner(t)
	rows := runSQL(t, pl, ds, `
		SELECT DISTINCT r_name FROM nation, region
		WHERE n_regionkey = r_regionkey ORDER BY r_name`)
	if len(rows) != 5 {
		t.Fatalf("distinct regions = %d, want 5", len(rows))
	}
}

// TestParserNeverPanics fuzzes the parser with mangled inputs: it must
// return errors, never panic.
func TestParserNeverPanics(t *testing.T) {
	seeds := []string{
		"SELECT a FROM t WHERE x BETWEEN 1 AND 2",
		"SELECT DISTINCT a, SUM(b) AS s FROM t GROUP BY a HAVING s > 1 ORDER BY s DESC LIMIT 5",
		"SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t",
		"SELECT * FROM a JOIN b ON a.x = b.y",
	}
	rng := rand.New(rand.NewSource(7))
	for _, seed := range seeds {
		for i := 0; i < 500; i++ {
			bs := []byte(seed)
			for k := 0; k < 1+rng.Intn(4); k++ {
				switch rng.Intn(3) {
				case 0: // mutate a byte
					bs[rng.Intn(len(bs))] = byte(rng.Intn(128))
				case 1: // delete a span
					at := rng.Intn(len(bs))
					end := at + rng.Intn(len(bs)-at)
					bs = append(bs[:at], bs[end:]...)
				case 2: // duplicate a span
					at := rng.Intn(len(bs))
					end := at + rng.Intn(len(bs)-at)
					bs = append(bs[:end], bs[at:]...)
				}
				if len(bs) == 0 {
					bs = []byte("S")
				}
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic on %q: %v", bs, r)
					}
				}()
				_, _ = sql.Parse(string(bs))
			}()
		}
	}
}
