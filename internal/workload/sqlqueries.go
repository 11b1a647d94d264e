package workload

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/skipper"
	"repro/internal/sql"
)

// This file defines additional benchmark queries through the SQL
// front-end rather than hand-built plans — both to exercise the parser/
// planner end-to-end and to document the queries in their natural form.

// mustPlan compiles a SQL statement against the catalog.
func mustPlan(cat *catalog.Catalog, name, query string) skipper.QuerySpec {
	pl := &sql.Planner{Catalog: cat}
	spec, err := pl.Plan(query)
	if err != nil {
		panic(fmt.Sprintf("workload: %s: %v", name, err))
	}
	spec.Name = name
	return spec
}

// Q3 is TPC-H Q3 ("shipping priority"): top unshipped orders by potential
// revenue for one market segment.
func Q3(cat *catalog.Catalog) skipper.QuerySpec {
	return mustPlan(cat, "tpch-q3", `
		SELECT l_orderkey, SUM(l_extendedprice * (1.0 - l_discount)) AS revenue, o_orderdate
		FROM customer, orders, lineitem
		WHERE c_mktsegment = 'BUILDING'
		  AND c_custkey = o_custkey
		  AND l_orderkey = o_orderkey
		  AND o_orderdate < '1995-03-15'
		  AND l_shipdate > '1995-03-15'
		GROUP BY l_orderkey, o_orderdate
		ORDER BY revenue DESC
		LIMIT 10`)
}

// Q14 is TPC-H Q14 ("promotion effect"): the promo and total revenue for
// one month of shipments. (The TPC-H percentage is promo/total; this
// engine has no aggregate division, so both terms are returned.)
func Q14(cat *catalog.Catalog) skipper.QuerySpec {
	return mustPlan(cat, "tpch-q14", `
		SELECT SUM(CASE WHEN p_type LIKE 'TYPE#1%'
		           THEN l_extendedprice * (1.0 - l_discount) ELSE 0.0 END) AS promo_revenue,
		       SUM(l_extendedprice * (1.0 - l_discount)) AS total_revenue
		FROM lineitem, part
		WHERE l_partkey = p_partkey
		  AND l_shipdate BETWEEN '1995-09-01' AND '1995-09-30'`)
}

// SSBQ12 is SSB Q1.2: a tighter month-grain variant of the Q1 flight.
func SSBQ12(cat *catalog.Catalog) skipper.QuerySpec {
	return mustPlan(cat, "ssb-q1.2", `
		SELECT SUM(lo_extendedprice * lo_discount) AS revenue
		FROM lineorder, date
		WHERE lo_orderdate = d_datekey
		  AND d_yearmonthnum = 199401
		  AND lo_discount BETWEEN 4 AND 6
		  AND lo_quantity BETWEEN 26 AND 35`)
}

// SSBQ13 is SSB Q1.3: the week-grain variant.
func SSBQ13(cat *catalog.Catalog) skipper.QuerySpec {
	return mustPlan(cat, "ssb-q1.3", `
		SELECT SUM(lo_extendedprice * lo_discount) AS revenue
		FROM lineorder, date
		WHERE lo_orderdate = d_datekey
		  AND d_weeknuminyear = 6
		  AND d_year = 1994
		  AND lo_discount BETWEEN 5 AND 7
		  AND lo_quantity BETWEEN 26 AND 35`)
}

// QShipdateWindow is the data-skipping probe behind the selectivity
// sweep: Q12's lineitem⋈orders join with a configurable l_shipdate
// window (dates as 'YYYY-MM-DD'). Going through the SQL planner attaches
// a stats.Pruner for the window automatically. The aggregates are
// integer-only (COUNT plus SUM of an int column), so results are
// bit-identical under any execution order — pruning on/off and every
// arrival order can be compared byte for byte.
func QShipdateWindow(cat *catalog.Catalog, lo, hi string) skipper.QuerySpec {
	return mustPlan(cat, fmt.Sprintf("shipwin[%s..%s]", lo, hi), fmt.Sprintf(`
		SELECT l_shipmode, COUNT(*) AS lines, SUM(l_quantity) AS qty
		FROM lineitem, orders
		WHERE l_orderkey = o_orderkey
		  AND l_shipdate BETWEEN '%s' AND '%s'
		GROUP BY l_shipmode
		ORDER BY l_shipmode`, lo, hi))
}

// Q5Selective is the Q5-style pruning showcase: the full six-relation
// Q5 join shape with tight range predicates on the two date columns, so
// on a date-clustered dataset the zone maps skip most lineitem and
// orders segments before any CSD request is issued. Integer aggregates
// keep the result bit-identical at any execution order (see
// QShipdateWindow).
func Q5Selective(cat *catalog.Catalog) skipper.QuerySpec {
	return mustPlan(cat, "tpch-q5-selective", `
		SELECT n_name, COUNT(*) AS lines, SUM(l_quantity) AS qty
		FROM customer, orders, lineitem, supplier, nation, region
		WHERE c_custkey = o_custkey
		  AND o_orderkey = l_orderkey
		  AND l_suppkey = s_suppkey
		  AND s_nationkey = n_nationkey
		  AND n_regionkey = r_regionkey
		  AND c_nationkey = s_nationkey
		  AND r_name = 'ASIA'
		  AND o_orderdate BETWEEN '1994-01-01' AND '1994-03-31'
		  AND l_shipdate BETWEEN '1994-01-01' AND '1994-06-30'
		GROUP BY n_name
		ORDER BY n_name`)
}

// QProjectiveScan is the single-table projection-pushdown probe: it
// touches three of lineitem's columns (filter, group key, aggregate), so
// a columnar (v2) store decodes three blocks per segment where a scan of
// every column decodes them all. Integer aggregates keep the
// result bit-identical at any execution order (see QShipdateWindow).
func QProjectiveScan(cat *catalog.Catalog) skipper.QuerySpec {
	return mustPlan(cat, "projective-scan", `
		SELECT l_shipmode, COUNT(*) AS lines, SUM(l_quantity) AS qty
		FROM lineitem
		WHERE l_shipdate BETWEEN '1994-01-01' AND '1994-06-30'
		GROUP BY l_shipmode
		ORDER BY l_shipmode`)
}

// QCountLineitem is the degenerate projection probe: COUNT(*) with no
// predicate references no column at all, so a columnar store decodes
// zero blocks — row counts come straight from the segment headers.
func QCountLineitem(cat *catalog.Catalog) skipper.QuerySpec {
	return mustPlan(cat, "count-lineitem", `SELECT COUNT(*) AS n FROM lineitem`)
}

// MultiPass builds the repeated-query workload the shared-segment-cache
// experiments run: `passes` rounds of the pruning probe pair (the
// join+agg shipdate window and the Q5-style selective join). Every pass
// re-reads the same segments, so a warm cache turns all but the first
// pass's fetches into local hits; without one, every pass pays full
// device traffic. Both probes end in ORDER BY over integer aggregates,
// so results are bit-identical at any arrival order — the property the
// cache on/off differential gates rely on.
func MultiPass(cat *catalog.Catalog, passes int) []skipper.QuerySpec {
	if passes < 1 {
		passes = 1
	}
	specs := make([]skipper.QuerySpec, 0, 2*passes)
	for i := 0; i < passes; i++ {
		specs = append(specs,
			QShipdateWindow(cat, "1994-01-01", "1994-01-31"),
			Q5Selective(cat),
		)
	}
	return specs
}

// Q6SQL is TPC-H Q6 ("forecasting revenue change") — a single-relation
// scan with tight predicates, demonstrating scans need no MJoin.
func Q6SQL(cat *catalog.Catalog) skipper.QuerySpec {
	return mustPlan(cat, "tpch-q6", `
		SELECT SUM(l_extendedprice * l_discount) AS revenue
		FROM lineitem
		WHERE l_shipdate BETWEEN '1994-01-01' AND '1994-12-31'
		  AND l_discount BETWEEN 0.02 AND 0.04
		  AND l_quantity < 24`)
}
