package stats_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/segment"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TestCollectFanOutMatchesSerial: at GOMAXPROCS 1 and 2 (and an odd 5),
// a table collected in parallel has the zone maps and Bloom words of its
// segments collected one at a time — from rows and from v2 bytes alike,
// over every TPC-H table.
func TestCollectFanOutMatchesSerial(t *testing.T) {
	ds := workload.TPCH(1, workload.TPCHConfig{SF: 12, RowsPerObject: 300, Seed: 40})
	for _, name := range ds.Catalog.TableNames() {
		tm := ds.Catalog.MustTable(name)
		plain := make([]*segment.Segment, len(tm.Objects))
		lazy := make([]*segment.Segment, len(tm.Objects))
		for i, id := range tm.Objects {
			plain[i] = ds.Store[id]
			data, err := plain[i].EncodeFormat(tm.Schema, segment.FormatV2)
			if err != nil {
				t.Fatal(err)
			}
			if lazy[i], err = segment.DecodeLazy(tm.Schema, data); err != nil {
				t.Fatal(err)
			}
		}
		for _, segs := range [][]*segment.Segment{plain, lazy} {
			var want []stats.SegmentStats
			for _, sg := range segs { // one segment: no goroutine, the serial loop
				want = append(want, stats.Collect(name, tm.Schema, []*segment.Segment{sg}, stats.DefaultOptions()).Segments...)
			}
			for _, procs := range []int{1, 2, 5} {
				prev := runtime.GOMAXPROCS(procs)
				got := stats.Collect(name, tm.Schema, segs, stats.DefaultOptions())
				runtime.GOMAXPROCS(prev)
				if !reflect.DeepEqual(got.Segments, want) {
					t.Fatalf("%s (lazy %v) at GOMAXPROCS %d: statistics differ from the serial ones", name, segs[0].Lazy(), procs)
				}
			}
		}
	}
}
