package workload

import (
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/skipper"
	"repro/internal/tuple"
)

// TPCHConfig sizes the TPC-H-like dataset.
type TPCHConfig struct {
	// SF is the scale factor; segment counts scale with it so that SF-50
	// reproduces the paper's 57-object Q12 footprint and SF-100 the
	// 140-object total of Figure 11c.
	SF int
	// RowsPerObject controls tuple density (default 24).
	RowsPerObject int
	// Seed makes generation deterministic per tenant.
	Seed int64
	// ClusteredDates sorts lineitem by l_shipdate and orders by
	// o_orderdate before segmenting, so date-filtered queries find their
	// matches concentrated in a few segments — the distribution under
	// which Skipper's subplan pruning eliminates refetches (§5.2.4) and
	// under which the zone maps of the statistics subsystem skip most
	// segments outright. Default (false) spreads matches uniformly, the
	// paper's high-reissue case.
	ClusteredDates bool
}

// segmentCounts derives per-relation object counts from the scale factor,
// using PostgreSQL-like on-disk proportions (lineitem dominates).
func (c TPCHConfig) segmentCounts() map[string]int {
	sf := float64(c.SF)
	ceil1 := func(x float64) int {
		n := int(x + 0.5)
		if n < 1 {
			return 1
		}
		return n
	}
	return map[string]int{
		"lineitem": ceil1(0.92 * sf),
		"orders":   ceil1(0.22 * sf),
		"customer": ceil1(0.06 * sf),
		"supplier": ceil1(0.02 * sf),
		"part":     ceil1(0.04 * sf),
		"partsupp": ceil1(0.12 * sf),
		"nation":   1,
		"region":   1,
	}
}

// TPC-H-like schemas (subset of columns used by Q12 and Q5).
var (
	SchemaLineitem = tuple.NewSchema(
		col("l_orderkey", tuple.KindInt64),
		col("l_partkey", tuple.KindInt64),
		col("l_suppkey", tuple.KindInt64),
		col("l_extendedprice", tuple.KindFloat64),
		col("l_discount", tuple.KindFloat64),
		col("l_quantity", tuple.KindInt64),
		col("l_shipdate", tuple.KindDate),
		col("l_commitdate", tuple.KindDate),
		col("l_receiptdate", tuple.KindDate),
		col("l_shipmode", tuple.KindString),
	)
	SchemaOrders = tuple.NewSchema(
		col("o_orderkey", tuple.KindInt64),
		col("o_custkey", tuple.KindInt64),
		col("o_orderdate", tuple.KindDate),
		col("o_orderpriority", tuple.KindString),
		col("o_totalprice", tuple.KindFloat64),
	)
	SchemaCustomer = tuple.NewSchema(
		col("c_custkey", tuple.KindInt64),
		col("c_nationkey", tuple.KindInt64),
		col("c_mktsegment", tuple.KindString),
	)
	SchemaSupplier = tuple.NewSchema(
		col("s_suppkey", tuple.KindInt64),
		col("s_nationkey", tuple.KindInt64),
	)
	SchemaPart = tuple.NewSchema(
		col("p_partkey", tuple.KindInt64),
		col("p_type", tuple.KindString),
	)
	SchemaPartsupp = tuple.NewSchema(
		col("ps_partkey", tuple.KindInt64),
		col("ps_suppkey", tuple.KindInt64),
		col("ps_supplycost", tuple.KindFloat64),
	)
	SchemaNation = tuple.NewSchema(
		col("n_nationkey", tuple.KindInt64),
		col("n_regionkey", tuple.KindInt64),
		col("n_name", tuple.KindString),
	)
	SchemaRegion = tuple.NewSchema(
		col("r_regionkey", tuple.KindInt64),
		col("r_name", tuple.KindString),
	)
)

var (
	shipModes  = []string{"MAIL", "SHIP", "AIR", "TRUCK", "RAIL", "FOB", "REG AIR"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	segments   = []string{"BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"}
	regions    = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nations    = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
		"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
		"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
		"ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
		"UNITED STATES",
	}
	// nationRegion maps each nation to its region, TPC-H style.
	nationRegion = []int64{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}
)

// TPCH generates one tenant's TPC-H-like database.
func TPCH(tenant int, cfg TPCHConfig) *Dataset {
	if cfg.SF <= 0 {
		cfg.SF = 50
	}
	if cfg.RowsPerObject <= 0 {
		cfg.RowsPerObject = 24
	}
	b := newBuilder(tenant, cfg.Seed^0x7C9)
	counts := cfg.segmentCounts()

	nCust := counts["customer"] * cfg.RowsPerObject
	nSupp := counts["supplier"] * cfg.RowsPerObject
	nOrd := counts["orders"] * cfg.RowsPerObject
	nLine := counts["lineitem"] * cfg.RowsPerObject
	nPart := counts["part"] * cfg.RowsPerObject
	nPS := counts["partsupp"] * cfg.RowsPerObject

	d92, d99 := tuple.Date(1992, 1, 1), tuple.Date(1998, 12, 31)

	// region, nation
	regionRows := rowArena(len(regions), SchemaRegion.Len())
	for i, name := range regions {
		regionRows[i] = append(regionRows[i], tuple.Int(int64(i)), tuple.Str(name))
	}
	b.addTable("region", SchemaRegion, regionRows, counts["region"])
	nationRows := rowArena(len(nations), SchemaNation.Len())
	for i, name := range nations {
		nationRows[i] = append(nationRows[i], tuple.Int(int64(i)), tuple.Int(nationRegion[i]), tuple.Str(name))
	}
	b.addTable("nation", SchemaNation, nationRows, counts["nation"])

	// customer
	custRows := rowArena(nCust, SchemaCustomer.Len())
	for i := range custRows {
		custRows[i] = append(custRows[i],
			tuple.Int(int64(i)),
			tuple.Int(int64(b.rng.Intn(len(nations)))),
			tuple.Str(pick(b.rng, segments)),
		)
	}
	b.addTable("customer", SchemaCustomer, custRows, counts["customer"])

	// supplier
	suppRows := rowArena(nSupp, SchemaSupplier.Len())
	for i := range suppRows {
		suppRows[i] = append(suppRows[i],
			tuple.Int(int64(i)),
			tuple.Int(int64(b.rng.Intn(len(nations)))),
		)
	}
	b.addTable("supplier", SchemaSupplier, suppRows, counts["supplier"])

	// part, partsupp
	partRows := rowArena(nPart, SchemaPart.Len())
	for i := range partRows {
		partRows[i] = append(partRows[i],
			tuple.Int(int64(i)),
			tuple.Str(fmt.Sprintf("TYPE#%d", b.rng.Intn(25))),
		)
	}
	b.addTable("part", SchemaPart, partRows, counts["part"])
	psRows := rowArena(nPS, SchemaPartsupp.Len())
	for i := range psRows {
		psRows[i] = append(psRows[i],
			tuple.Int(int64(b.rng.Intn(nPart))),
			tuple.Int(int64(b.rng.Intn(nSupp))),
			tuple.Float(float64(b.rng.Intn(100000))/100),
		)
	}
	b.addTable("partsupp", SchemaPartsupp, psRows, counts["partsupp"])

	// orders
	ordRows := rowArena(nOrd, SchemaOrders.Len())
	for i := range ordRows {
		ordRows[i] = append(ordRows[i],
			tuple.Int(int64(i)),
			tuple.Int(int64(b.rng.Intn(nCust))),
			tuple.DateFromDays(b.dateBetween(d92, d99)),
			tuple.Str(pick(b.rng, priorities)),
			tuple.Float(float64(b.rng.Intn(5000000))/100),
		)
	}
	if cfg.ClusteredDates {
		dateIdx := SchemaOrders.MustColIndex("o_orderdate")
		sort.SliceStable(ordRows, func(i, j int) bool {
			return ordRows[i][dateIdx].AsInt() < ordRows[j][dateIdx].AsInt()
		})
	}
	b.addTable("orders", SchemaOrders, ordRows, counts["orders"])

	// lineitem: references orders and suppliers; dates arranged so Q12's
	// predicates select a meaningful fraction.
	lineRows := rowArena(nLine, SchemaLineitem.Len())
	for i := range lineRows {
		ship := b.dateBetween(d92, d99)
		commit := ship + int64(b.rng.Intn(90)) - 29 // ship-29 .. ship+60
		receipt := commit + int64(b.rng.Intn(90)) - 29
		lineRows[i] = append(lineRows[i],
			tuple.Int(int64(b.rng.Intn(nOrd))),
			tuple.Int(int64(b.rng.Intn(nPart))),
			tuple.Int(int64(b.rng.Intn(nSupp))),
			tuple.Float(float64(900+b.rng.Intn(104000))),
			tuple.Float(float64(b.rng.Intn(11))/100),
			tuple.Int(int64(1+b.rng.Intn(50))),
			tuple.DateFromDays(ship),
			tuple.DateFromDays(commit),
			tuple.DateFromDays(receipt),
			tuple.Str(pick(b.rng, shipModes)),
		)
	}
	if cfg.ClusteredDates {
		shipIdx := SchemaLineitem.MustColIndex("l_shipdate")
		sort.SliceStable(lineRows, func(i, j int) bool {
			return lineRows[i][shipIdx].AsInt() < lineRows[j][shipIdx].AsInt()
		})
	}
	b.addTable("lineitem", SchemaLineitem, lineRows, counts["lineitem"])

	return b.dataset()
}

// Q12 is TPC-H Q12 ("shipping modes and order priority"): a join of
// lineitem and orders with shipmode/date predicates, grouped by shipmode.
func Q12(cat *catalog.Catalog) skipper.QuerySpec {
	return mustPlan(cat, "tpch-q12", `
		SELECT l_shipmode,
		       SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) AS high_line_count,
		       SUM(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 0 ELSE 1 END) AS low_line_count
		FROM lineitem, orders
		WHERE l_orderkey = o_orderkey
		  AND l_shipmode IN ('MAIL', 'SHIP')
		  AND l_commitdate < l_receiptdate
		  AND l_shipdate < l_commitdate
		  AND l_receiptdate BETWEEN '1994-01-01' AND '1994-12-31'
		GROUP BY l_shipmode
		ORDER BY l_shipmode`)
}

// Q5 is TPC-H Q5 ("local supplier volume"): a six-relation join whose
// input nearly covers the whole dataset. The c_nationkey = s_nationkey
// edge closes a cycle in the join graph, so the planner applies it in the
// shaping stage, identically for both engines.
func Q5(cat *catalog.Catalog) skipper.QuerySpec {
	return mustPlan(cat, "tpch-q5", `
		SELECT n_name, SUM(l_extendedprice * (1.0 - l_discount)) AS revenue
		FROM customer, orders, lineitem, supplier, nation, region
		WHERE c_custkey = o_custkey
		  AND o_orderkey = l_orderkey
		  AND l_suppkey = s_suppkey
		  AND s_nationkey = n_nationkey
		  AND n_regionkey = r_regionkey
		  AND c_nationkey = s_nationkey
		  AND r_name = 'ASIA'
		  AND o_orderdate BETWEEN '1994-01-01' AND '1994-12-31'
		GROUP BY n_name
		ORDER BY revenue DESC`)
}
