package workload

import (
	"fmt"

	"repro/internal/catalog"
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
		col("page_url", tuple.KindString),
		col("page_rank", tuple.KindInt64),
		col("avg_duration", tuple.KindInt64),
	)
	SchemaUservisits = tuple.NewSchema(
		col("source_ip", tuple.KindString),
		col("dest_url", tuple.KindString),
		col("visit_date", tuple.KindDate),
		col("ad_revenue", tuple.KindFloat64),
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

// MRJoinTask is the benchmark's JoinTask: per-source ad revenue and
// average page rank for visits in a date window.
func MRJoinTask(cat *catalog.Catalog) skipper.QuerySpec {
	return mustPlan(cat, "mr-join", `
		SELECT source_ip, AVG(page_rank) AS avg_page_rank, SUM(ad_revenue) AS total_revenue
		FROM rankings, uservisits
		WHERE page_url = dest_url
		  AND visit_date BETWEEN '2000-01-15' AND '2000-03-31'
		GROUP BY source_ip
		ORDER BY total_revenue DESC`)
}
