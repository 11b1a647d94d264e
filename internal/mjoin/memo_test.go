package mjoin

import (
	"reflect"
	"testing"

	"repro/internal/segment"
	"repro/internal/tuple"
)

// TestMemoizedArrivalsMatchPlain runs probeMatrix's v2 cells over a store
// in which every other object is memoized, as a segment cache hands them
// out, twice. Relation a is unfiltered, so its entries view the memo's
// vectors, and the small caches evict them; b and c copy their survivors
// out. Both runs must return the plain run's rows in its order, with the
// same stats but for decode bytes, and the second must decode less. After
// them, every memo must still hold what the segment encodes: no decode
// wrote into a view and no view reached the eviction pool.
func TestMemoizedArrivalsMatchPlain(t *testing.T) {
	probeMatrix(t, func(label string, cfg Config, _, q *Query, _, src func() Source) {
		plain, _, plainStats := runWithReference(t, q, cfg, src())
		schemas := map[string]*tuple.Schema{}
		for _, rel := range q.Relations {
			schemas[rel.Table.Name] = rel.Table.Schema
		}
		plainStore := src().(*scriptSource).store
		memoStore := make(map[segment.ObjectID]*segment.Segment, len(plainStore))
		for id, g := range plainStore {
			if id.Index%2 == 0 {
				g = g.Memoize()
			}
			memoStore[id] = g
		}
		memoSrc := func() Source {
			s := src().(*scriptSource)
			s.store = memoStore
			return s
		}
		var decoded [2]int64
		for pass := range decoded {
			got, want, stats := runWithReference(t, q, cfg, memoSrc())
			if !reflect.DeepEqual(renderInOrder(got), renderInOrder(want)) || !reflect.DeepEqual(got, plain) {
				t.Fatalf("%s pass %d: memoized run differs from the plain run (%d vs %d rows)", label, pass, len(got), len(plain))
			}
			decoded[pass] = stats.BytesDecoded
			stats.BytesDecoded, stats.BytesMaterialized = plainStats.BytesDecoded, plainStats.BytesMaterialized
			if !statsEqualIgnoringPipe(stats, plainStats) {
				t.Fatalf("%s pass %d: stats diverge\nplain: %+v\nmemo:  %+v", label, pass, plainStats, stats)
			}
		}
		if decoded[0] > plainStats.BytesDecoded || decoded[1] >= plainStats.BytesDecoded {
			t.Fatalf("%s: decoded %d then %d bytes over memoized objects, %d over plain ones", label, decoded[0], decoded[1], plainStats.BytesDecoded)
		}
		for id, g := range memoStore {
			if !g.Memoized() {
				continue
			}
			sch := schemas[id.Table]
			got, err := g.DecodeColumns(sch, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plainStore[id].DecodeColumns(sch, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Cols, want.Cols) {
				t.Fatalf("%s: the memo of %v was written into", label, id)
			}
		}
	})
}
