package workload

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/mjoin"
	"repro/internal/skipper"
	"repro/internal/tuple"
)

// MRBenchConfig sizes the Pavlo et al. analytical benchmark dataset
// (rankings + uservisits; the paper uses a 20 GB database).
type MRBenchConfig struct {
	// TotalGB is the dataset footprint in 1 GB objects (default 20).
	TotalGB       int
	RowsPerObject int
	Seed          int64
}

// MRBench schemas.
var (
	SchemaRankings = tuple.NewSchema(
		col("pageURL", tuple.KindString),
		col("pageRank", tuple.KindInt64),
		col("avgDuration", tuple.KindInt64),
	)
	SchemaUservisits = tuple.NewSchema(
		col("sourceIP", tuple.KindString),
		col("destURL", tuple.KindString),
		col("visitDate", tuple.KindDate),
		col("adRevenue", tuple.KindFloat64),
	)
)

// MRBench generates one tenant's analytical-benchmark database: a small
// rankings relation and a large uservisits log.
func MRBench(tenant int, cfg MRBenchConfig) *Dataset {
	if cfg.TotalGB <= 0 {
		cfg.TotalGB = 20
	}
	if cfg.RowsPerObject <= 0 {
		cfg.RowsPerObject = 24
	}
	b := newBuilder(tenant, cfg.Seed^0x3B7)

	rankSegs := cfg.TotalGB / 10
	if rankSegs < 1 {
		rankSegs = 1
	}
	visitSegs := cfg.TotalGB - rankSegs
	if visitSegs < 1 {
		visitSegs = 1
	}

	nPages := rankSegs * cfg.RowsPerObject
	rankRows := rowArena(nPages, SchemaRankings.Len())
	urls := make([]string, nPages)
	for i := range rankRows {
		urls[i] = fmt.Sprintf("url%06d", i)
		rankRows[i] = append(rankRows[i],
			tuple.Str(urls[i]),
			tuple.Int(int64(b.rng.Intn(10000))),
			tuple.Int(int64(1+b.rng.Intn(300))),
		)
	}
	b.addTable("rankings", SchemaRankings, rankRows, rankSegs)

	nVisits := visitSegs * cfg.RowsPerObject
	visitRows := rowArena(nVisits, SchemaUservisits.Len())
	for i := range visitRows {
		visitRows[i] = append(visitRows[i],
			tuple.Str(fmt.Sprintf("%d.%d.%d.%d", b.rng.Intn(256), b.rng.Intn(256), b.rng.Intn(256), b.rng.Intn(256))),
			tuple.Str(urls[b.rng.Intn(nPages)]),
			tuple.DateFromDays(b.dateBetween(tuple.Date(1999, 1, 1), tuple.Date(2000, 12, 31))),
			tuple.Float(float64(b.rng.Intn(100000))/100),
		)
	}
	b.addTable("uservisits", SchemaUservisits, visitRows, visitSegs)
	return b.dataset()
}

// MRJoinTask builds the benchmark's JoinTask: per-source ad revenue and
// average page rank for visits in a date window.
func MRJoinTask(cat *catalog.Catalog) skipper.QuerySpec {
	rankings := cat.MustTable("rankings")
	uservisits := cat.MustTable("uservisits")
	uvFilter := expr.ColBetween(uservisits.Schema, "visitDate",
		tuple.Date(2000, 1, 15), tuple.Date(2000, 3, 31))
	join := &mjoin.Query{
		ID: "mr-join",
		Relations: []mjoin.Relation{
			{Table: rankings, Cols: colsOf(rankings.Schema, "pageURL", "pageRank")},
			{Table: uservisits, Filter: uvFilter},
		},
		Joins: []mjoin.JoinCond{{Rel: 1, LeftCol: "pageURL", RightCol: "destURL"}},
	}
	outSchema := join.OutputSchema()
	shape := func(in engine.Iterator) engine.Iterator {
		agg := engine.NewHashAgg(in,
			[]engine.GroupCol{{Name: "sourceIP", Kind: tuple.KindString, E: expr.Bind(outSchema, "sourceIP")}},
			[]engine.AggSpec{
				{Kind: engine.AggAvg, Name: "avgPageRank", Arg: expr.Bind(outSchema, "pageRank")},
				{Kind: engine.AggSum, Name: "totalRevenue", Arg: expr.Bind(outSchema, "adRevenue")},
			})
		return engine.NewSort(agg, []engine.SortKey{{E: expr.NewCol(2, "totalRevenue"), Desc: true}})
	}
	return skipper.QuerySpec{Name: "mr-join", Join: join, Shape: shape, Bound: outSchema}
}
