package experiments

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/mjoin"
	"repro/internal/skipper"
	"repro/internal/workload"
)

// This file is the evaluation of projection pushdown: the report behind
// `skipperbench -report proj`. Every probe query runs twice over one v2
// store, with Cols dropped from every relation (every block decoded, what
// a row-major store pays) and with the planner's projection; the report
// compares the scan-side byte accounting (fetched / decoded / skipped /
// materialized) and the wall-clock decode time. (That v2 objects return
// what workload.Evaluate returns over the generated rows is the lattice
// harness's oracle; TestReportQueriesVerify holds this report's queries
// to it.)

// ProjectionPoint is one query × projection row of the projection report.
// Not a grid: the report drains pull plans, it runs no cell.
type ProjectionPoint struct {
	Query string
	// Columns summarizes the per-relation projection, e.g. "5/25 cols".
	Columns string
	// BytesFetched is the total encoded size of the fetched segments;
	// BytesDecoded the block bytes actually decoded; BytesSkipped the
	// block bytes projection pushdown left untouched; BytesMaterialized
	// the logical size of the decoded values.
	BytesFetched, BytesDecoded, BytesSkipped, BytesMaterialized int64
	// DecodeTime is the wall-clock time the pull engine's scans spent
	// decoding segments, summed over repetitions (see projReps).
	DecodeTime time.Duration
	// Rows is the join's cardinality (identical across the two points).
	Rows int
}

// projReps repeats each timed drain so decode times are measurable even
// at quick scale.
const projReps = 5

// projectionSummary renders the per-relation projected column counts of a
// join, e.g. "4/16+1/9 cols".
func projectionSummary(join *mjoin.Query) string {
	out := ""
	for i, rel := range join.Relations {
		if i > 0 {
			out += "+"
		}
		n := rel.Table.Schema.Len()
		if rel.Cols == nil {
			out += fmt.Sprintf("%d/%d", n, n)
		} else {
			out += fmt.Sprintf("%d/%d", len(rel.Cols), n)
		}
	}
	return out + " cols"
}

// allColumns returns join with Cols dropped from every relation, so every
// leg decodes every column block.
func allColumns(join *mjoin.Query) *mjoin.Query {
	q := *join
	q.Relations = append([]mjoin.Relation(nil), join.Relations...)
	for i := range q.Relations {
		q.Relations[i].Cols = nil
	}
	return &q
}

// ProjectionReportData measures each probe query over the v2 store, every
// column decoded and then projected: two points per query, in that order.
func (p Params) ProjectionReportData() ([]ProjectionPoint, error) {
	ds, err := encoded(p.clusteredDataset())
	if err != nil {
		return nil, fmt.Errorf("encode v2: %w", err)
	}
	// Projective probes that touch a handful of the wide tables' columns:
	// the pruning report's shapes, so the two reports read side by side.
	var out []ProjectionPoint
	for _, q := range []namedQuery{
		{"join+agg (shipdate 1994-01)", workload.QShipdateWindow(ds.Catalog, "1994-01-01", "1994-01-31")},
		{"projective lineitem scan", workload.QProjectiveScan(ds.Catalog)},
		{"count(*) lineitem", workload.QCountLineitem(ds.Catalog)},
	} {
		for _, join := range []*mjoin.Query{allColumns(q.spec.Join), q.spec.Join} {
			pt, err := measureProjection(ds, join, q.name)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// measureProjection drains the join's pull plan projReps times over the
// encoded store and gathers the scans' byte and decode-time accounting.
func measureProjection(ds *workload.Dataset, join *mjoin.Query, name string) (ProjectionPoint, error) {
	pt := ProjectionPoint{Query: name, Columns: projectionSummary(join)}
	for rep := 0; rep < projReps; rep++ {
		it, err := skipper.BuildPullPlan(engine.NewTestCtx(ds.Store), join)
		if err != nil {
			return pt, err
		}
		scans := engine.SeqScans(it)
		rows, err := engine.Collect(it)
		if err != nil {
			return pt, err
		}
		pt.Rows = len(rows)
		for _, s := range scans {
			b := s.Bytes()
			pt.DecodeTime += s.PipeStats().DecodeBusy
			if rep == 0 {
				pt.BytesFetched += b.Fetched
				pt.BytesDecoded += b.Decoded
				pt.BytesSkipped += b.SkippedByProjection
				pt.BytesMaterialized += b.Materialized
			}
		}
	}
	return pt, nil
}

// ProjectionReport renders ProjectionReportData (the `skipperbench -report
// proj` output).
func (p Params) ProjectionReport() (*Figure, error) {
	pts, err := p.ProjectionReportData()
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:      "Projection report",
		Title:   "Scan-side decode bytes and time, columnar (v2) segments with every column decoded vs projection pushdown (date-clustered dataset, pull engine)",
		Columns: []string{"query", "format", "projection", "fetched B", "decoded B", "skipped B", "skipped", "materialized B", fmt.Sprintf("decode ms (%d reps)", projReps)},
		Notes: []string{
			"results over v2 objects are held byte-identical to workload.Evaluate over the generated rows, both engines, pruning on/off, by the lattice harness (go test ./internal/experiments -run TestReportQueriesVerify)",
			"skipped B = encoded column-block bytes projection pushdown never decoded (all cols decodes every block, as a row-major store must)",
		},
	}
	for i, pt := range pts {
		f.Rows = append(f.Rows, []string{
			pt.Query, [2]string{"v2 all cols", "v2 projected"}[i%2], pt.Columns,
			fmt.Sprint(pt.BytesFetched), fmt.Sprint(pt.BytesDecoded), fmt.Sprint(pt.BytesSkipped),
			fmt.Sprintf("%.0f%%", 100*metrics.ProjectionRatio(pt.BytesDecoded, pt.BytesSkipped)),
			fmt.Sprint(pt.BytesMaterialized),
			fmt.Sprintf("%.2f", float64(pt.DecodeTime.Microseconds())/1000),
		})
	}
	// Surface the all-columns → projected decode-side ratios per query,
	// the headline projection pushdown is after.
	for i := 0; i+1 < len(pts); i += 2 {
		all, proj := pts[i], pts[i+1]
		if proj.BytesDecoded > 0 && proj.DecodeTime > 0 {
			f.Notes = append(f.Notes, fmt.Sprintf("%s: projected decodes %.1f%% of all-columns bytes, %.2fx decode speedup",
				all.Query, 100*float64(proj.BytesDecoded)/float64(all.BytesDecoded),
				float64(all.DecodeTime)/float64(proj.DecodeTime)))
		}
	}
	return f, nil
}
