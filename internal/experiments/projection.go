package experiments

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/workload"
)

// This file is the evaluation of the columnar segment format (v2) and its
// projection pushdown: the report behind `skipperbench -report proj`.
// Every probe query runs over the same dataset encoded in FormatV1
// (row-major) and FormatV2 (columnar); the report compares the scan-side
// byte accounting (fetched / decoded / skipped-by-projection /
// materialized) and the wall-clock decode time. (That the format never
// changes a result is the lattice harness's format axis;
// TestReportQueriesVerify runs it over this report's queries.)

// ProjectionPoint is one query × format row of the projection report.
type ProjectionPoint struct {
	Query  string
	Format segment.Format
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
	// Rows is the query's result cardinality (identical across formats).
	Rows int
}

// projReps repeats each timed drain so decode times are measurable even
// at quick scale.
const projReps = 5

// projQueries are the probe queries of the projection report: projective
// SQL probes that touch a handful of the wide tables' columns. They are
// the same shapes the pruning report uses, so the two reports read side
// by side.
func projQueries(ds *workload.Dataset) []struct {
	name string
	spec skipper.QuerySpec
} {
	return []struct {
		name string
		spec skipper.QuerySpec
	}{
		{"join+agg (shipdate 1994-01)", workload.QShipdateWindow(ds.Catalog, "1994-01-01", "1994-01-31")},
		{"projective lineitem scan", workload.QProjectiveScan(ds.Catalog)},
		{"count(*) lineitem", workload.QCountLineitem(ds.Catalog)},
	}
}

// projectionSummary renders the per-relation projected column counts of a
// spec, e.g. "4/16+1/9 cols".
func projectionSummary(spec skipper.QuerySpec) string {
	out := ""
	for i, rel := range spec.Join.Relations {
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

// ProjectionReportData measures each probe query over FormatV1 and
// FormatV2.
func (p Params) ProjectionReportData() ([]ProjectionPoint, error) {
	base := p.clusteredDataset()
	encoded := map[segment.Format]*workload.Dataset{}
	for _, f := range []segment.Format{segment.FormatV1, segment.FormatV2} {
		pf := p
		pf.Format = f
		ds, err := pf.encoded(base)
		if err != nil {
			return nil, fmt.Errorf("encode %v: %w", f, err)
		}
		encoded[f] = ds
	}
	var out []ProjectionPoint
	for qi, q := range projQueries(encoded[segment.FormatV2]) {
		for _, f := range []segment.Format{segment.FormatV1, segment.FormatV2} {
			ds := encoded[f]
			pt, err := measureProjection(ds, projQueries(ds)[qi].spec, q.name, f)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// measureProjection drains the pull plan projReps times over the encoded
// store and gathers the scans' byte and decode-time accounting.
func measureProjection(ds *workload.Dataset, spec skipper.QuerySpec, name string, f segment.Format) (ProjectionPoint, error) {
	pt := ProjectionPoint{Query: name, Format: f, Columns: projectionSummary(spec)}
	for rep := 0; rep < projReps; rep++ {
		ctx := engine.NewTestCtx(ds.Store)
		it, err := skipper.BuildPullPlan(ctx, spec.Join)
		if err != nil {
			return pt, err
		}
		scans := engine.SeqScans(it)
		if spec.Shape != nil {
			it = spec.Shape(it)
		}
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
		Title:   "Scan-side decode bytes and time, row-major (v1) vs columnar (v2) segments (date-clustered dataset, pull engine)",
		Columns: []string{"query", "format", "projection", "fetched B", "decoded B", "skipped B", "skipped", "materialized B", fmt.Sprintf("decode ms (%d reps)", projReps)},
		Notes: []string{
			"results are held byte-identical across v1/v2 formats, both engines, pruning on/off, by the lattice harness (go test ./internal/experiments -run TestReportQueriesVerify)",
			"skipped B = encoded column-block bytes projection pushdown never decoded (v1 must always decode whole segments)",
		},
	}
	for _, pt := range pts {
		f.Rows = append(f.Rows, []string{
			pt.Query, pt.Format.String(), pt.Columns,
			fmt.Sprint(pt.BytesFetched), fmt.Sprint(pt.BytesDecoded), fmt.Sprint(pt.BytesSkipped),
			fmt.Sprintf("%.0f%%", 100*metrics.ProjectionRatio(pt.BytesDecoded, pt.BytesSkipped)),
			fmt.Sprint(pt.BytesMaterialized),
			fmt.Sprintf("%.2f", float64(pt.DecodeTime.Microseconds())/1000),
		})
	}
	// Surface the v1→v2 decode-side ratios per query, the headline the
	// format change is after.
	for i := 0; i+1 < len(pts); i += 2 {
		v1, v2 := pts[i], pts[i+1]
		if v2.BytesDecoded > 0 && v2.DecodeTime > 0 {
			f.Notes = append(f.Notes, fmt.Sprintf("%s: v2 decodes %.1f%% of v1's bytes, %.2fx decode speedup",
				v1.Query, 100*float64(v2.BytesDecoded)/float64(v1.BytesDecoded),
				float64(v1.DecodeTime)/float64(v2.DecodeTime)))
		}
	}
	return f, nil
}
