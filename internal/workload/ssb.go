package workload

import (
	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/mjoin"
	"repro/internal/skipper"
	"repro/internal/tuple"
)

// SSBConfig sizes the Star Schema Benchmark dataset.
type SSBConfig struct {
	SF            int // scale factor (paper: 50)
	RowsPerObject int
	Seed          int64
}

// SSB schemas (columns used by Q1.x flights).
var (
	SchemaLineorder = tuple.NewSchema(
		col("lo_orderkey", tuple.KindInt64),
		col("lo_orderdate", tuple.KindInt64), // d_datekey format yyyymmdd
		col("lo_quantity", tuple.KindInt64),
		col("lo_extendedprice", tuple.KindFloat64),
		col("lo_discount", tuple.KindInt64), // percent 0..10
	)
	SchemaDate = tuple.NewSchema(
		col("d_datekey", tuple.KindInt64),
		col("d_year", tuple.KindInt64),
		col("d_yearmonthnum", tuple.KindInt64),
		col("d_weeknuminyear", tuple.KindInt64),
	)
)

// SSB generates one tenant's star-schema database: a lineorder fact table
// plus a date dimension.
func SSB(tenant int, cfg SSBConfig) *Dataset {
	if cfg.SF <= 0 {
		cfg.SF = 50
	}
	if cfg.RowsPerObject <= 0 {
		cfg.RowsPerObject = 24
	}
	b := newBuilder(tenant, cfg.Seed^0x55B)

	// Date dimension: 7 years of days, one segment.
	var dateRows []tuple.Row
	var dateKeys []int64
	for year := 1992; year <= 1998; year++ {
		for doy := 0; doy < 364; doy += 7 { // weekly granularity keeps it compact
			key := int64(year*10000 + (doy/30+1)*100 + doy%28 + 1)
			dateKeys = append(dateKeys, key)
			dateRows = append(dateRows, tuple.Row{
				tuple.Int(key),
				tuple.Int(int64(year)),
				tuple.Int(int64(year*100 + doy/30 + 1)),
				tuple.Int(int64(doy/7 + 1)),
			})
		}
	}
	b.addTable("date", SchemaDate, dateRows, 1)

	// Fact table sized like SSB: lineorder dominates (≈0.94 GB per SF).
	nSegs := int(0.94*float64(cfg.SF) + 0.5)
	if nSegs < 1 {
		nSegs = 1
	}
	nRows := nSegs * cfg.RowsPerObject
	loRows := rowArena(nRows, SchemaLineorder.Len())
	for i := range loRows {
		loRows[i] = append(loRows[i],
			tuple.Int(int64(i)),
			tuple.Int(dateKeys[b.rng.Intn(len(dateKeys))]),
			tuple.Int(int64(1+b.rng.Intn(50))),
			tuple.Float(float64(100+b.rng.Intn(1000000))),
			tuple.Int(int64(b.rng.Intn(11))),
		)
	}
	b.addTable("lineorder", SchemaLineorder, loRows, nSegs)
	return b.dataset()
}

// SSBQ1 builds SSB Q1.1: revenue from discount-band sales in 1993 —
// lineorder ⋈ date with tight filters and a global aggregate.
func SSBQ1(cat *catalog.Catalog) skipper.QuerySpec {
	lineorder := cat.MustTable("lineorder")
	date := cat.MustTable("date")
	los := lineorder.Schema
	loFilter := expr.NewAnd(
		expr.ColBetween(los, "lo_discount", tuple.Int(1), tuple.Int(3)),
		expr.ColLT(los, "lo_quantity", tuple.Int(25)),
	)
	join := &mjoin.Query{
		ID: "ssb-q1",
		Relations: []mjoin.Relation{
			{Table: lineorder, Filter: loFilter,
				Cols: colsOf(los, "lo_orderdate", "lo_quantity", "lo_extendedprice", "lo_discount")},
			{Table: date, Filter: expr.ColEq(date.Schema, "d_year", tuple.Int(1993)),
				Cols: colsOf(date.Schema, "d_datekey", "d_year")},
		},
		Joins: []mjoin.JoinCond{{Rel: 1, LeftCol: "lo_orderdate", RightCol: "d_datekey"}},
	}
	outSchema := join.OutputSchema()
	revenue := expr.Arith{
		Op: expr.Mul,
		L:  expr.Bind(outSchema, "lo_extendedprice"),
		R:  expr.Bind(outSchema, "lo_discount"),
	}
	shape := engine.NewShape(outSchema).Aggregate(nil,
		[]engine.AggSpec{{Kind: engine.AggSum, Name: "revenue", Arg: revenue}})
	return skipper.QuerySpec{Name: "ssb-q1", Join: join, Shape: shape.Apply, Bound: outSchema}
}
