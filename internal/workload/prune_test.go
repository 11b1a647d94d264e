package workload

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/tuple"
)

// captureIter tees the rows a cluster client's shaping stage emits, so
// cluster-level differential tests can compare full results instead of
// row counts.
type captureIter struct {
	engine.Iterator
	sink *[]tuple.Row
}

func (c *captureIter) NextBatch() (*tuple.Batch, bool, error) {
	b, ok, err := c.Iterator.NextBatch()
	if ok && err == nil {
		*c.sink = b.AppendRows(*c.sink)
	}
	return b, ok, err
}

// runPrunedCluster executes the spec on one client, capturing the result
// rows the cluster actually produced.
func runPrunedCluster(t *testing.T, ds *Dataset, spec skipper.QuerySpec, mode skipper.Mode, prune bool) ([]tuple.Row, *skipper.ClientStats) {
	t.Helper()
	store := make(map[segment.ObjectID]*segment.Segment)
	ds.MergeInto(store)
	var got []tuple.Row
	shape := spec.Shape
	sp := spec
	sp.Shape = func(in engine.Iterator) engine.Iterator {
		return &captureIter{Iterator: shape(in), sink: &got}
	}
	client := &skipper.Client{
		Tenant: 0, Mode: mode, Catalog: ds.Catalog,
		Queries:        []skipper.QuerySpec{sp},
		CacheObjects:   8,
		NoStatsPruning: !prune,
	}
	res, err := (&skipper.Cluster{Clients: []*skipper.Client{client}, Store: store}).Run()
	if err != nil {
		t.Fatalf("%v prune=%v: %v", mode, prune, err)
	}
	return got, res.Clients[0]
}

// rowStrings renders rows for exact comparison.
func rowStrings(rows []tuple.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// TestClusterPruningDifferential is the end-to-end guarantee of the
// statistics subsystem: across both engines and predicate
// windows that sit exactly on segment min/max boundaries, a client with
// data skipping on produces byte-identical results to one with it off —
// while issuing measurably fewer CSD requests on the tight windows.
func TestClusterPruningDifferential(t *testing.T) {
	ds := TPCH(0, TPCHConfig{SF: 8, RowsPerObject: 12, Seed: 5, ClusteredDates: true})
	lt := ds.Catalog.MustTable("lineitem")
	shipIdx := lt.Schema.MustColIndex("l_shipdate")
	if len(lt.Stats.Segments) < 3 {
		t.Fatalf("need ≥3 lineitem segments, have %d", len(lt.Stats.Segments))
	}
	// Predicate boundaries lifted straight from one segment's zone map:
	// the exact min and max values are the inclusive edge cases.
	mid := lt.Stats.Segments[1].Cols[shipIdx]
	lo, hi := mid.Min.String(), mid.Max.String()

	windows := []struct {
		name   string
		lo, hi string
	}{
		{"segment-exact", lo, hi},
		{"min-boundary", lo, lo},
		{"max-boundary", hi, hi},
		{"quarter", "1994-01-01", "1994-03-31"},
		{"all", "1992-01-01", "1998-12-31"},
	}
	totalSkipped := 0
	for _, w := range windows {
		spec := QShipdateWindow(ds.Catalog, w.lo, w.hi)
		for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
			tag := fmt.Sprintf("%s %v", w.name, mode)
			on, statsOn := runPrunedCluster(t, ds, spec, mode, true)
			off, statsOff := runPrunedCluster(t, ds, spec, mode, false)
			gotOn, gotOff := rowStrings(on), rowStrings(off)
			if len(gotOn) != len(gotOff) {
				t.Fatalf("%s: %d rows pruned vs %d unpruned", tag, len(gotOn), len(gotOff))
			}
			for i := range gotOn {
				if gotOn[i] != gotOff[i] {
					t.Fatalf("%s: row %d diverges: %s vs %s", tag, i, gotOn[i], gotOff[i])
				}
			}
			if statsOff.SegmentsSkipped != 0 {
				t.Fatalf("%s: unpruned client skipped %d segments", tag, statsOff.SegmentsSkipped)
			}
			if statsOn.GetsIssued+statsOn.SegmentsSkipped < statsOff.GetsIssued && statsOn.SegmentsSkipped == 0 {
				t.Fatalf("%s: GETs dropped (%d vs %d) without skip accounting", tag, statsOn.GetsIssued, statsOff.GetsIssued)
			}
			if statsOn.GetsIssued > statsOff.GetsIssued {
				t.Fatalf("%s: pruning increased GETs (%d vs %d)", tag, statsOn.GetsIssued, statsOff.GetsIssued)
			}
			totalSkipped += statsOn.SegmentsSkipped
			if w.name != "all" && w.name != "segment-exact" && statsOn.SegmentsSkipped == 0 {
				t.Fatalf("%s: tight window skipped nothing", tag)
			}
		}
	}
	if totalSkipped == 0 {
		t.Fatal("no segment was ever skipped across the sweep")
	}
}
