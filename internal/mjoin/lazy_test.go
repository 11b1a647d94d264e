package mjoin

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/segment"
)

// lazyDB rebuilds a buildDB store with lazily decoded v2 segments, so
// arrivals actually exercise the decode path.
func lazyDB(t testing.TB, specs []relSpec) (*catalog.Catalog, map[segment.ObjectID]*segment.Segment) {
	t.Helper()
	cat, store := buildDB(t, specs)
	lazyCat := catalog.New(0)
	lazyStore := make(map[segment.ObjectID]*segment.Segment)
	for _, spec := range specs {
		tm := cat.MustTable(spec.name)
		lazy := make([]*segment.Segment, len(tm.Objects))
		for i, id := range tm.Objects {
			data, err := store[id].EncodeFormat(tm.Schema, segment.FormatV2)
			if err != nil {
				t.Fatal(err)
			}
			lz, err := segment.DecodeLazy(tm.Schema, data)
			if err != nil {
				t.Fatal(err)
			}
			lazy[i] = lz
			lazyStore[lz.ID] = lz
		}
		lazyCat.MustAddTable(spec.name, tm.Schema, lazy)
	}
	return lazyCat, lazyStore
}

// statsEqualIgnoringPipe compares two Stats with the wall-clock decode
// accounting (real time, nondeterministic) zeroed out.
func statsEqualIgnoringPipe(a, b Stats) bool {
	a.Pipe, b.Pipe = engine.PipeStats{}, engine.PipeStats{}
	return reflect.DeepEqual(a, b)
}

// failingSource delivers good arrivals until failAfter, then errors.
type failingSource struct {
	scriptSource
	failAfter int
	delivered int
	errOut    error
}

func (s *failingSource) NextArrival() (*segment.Segment, error) {
	if s.delivered >= s.failAfter {
		return nil, s.errOut
	}
	s.delivered++
	return s.scriptSource.NextArrival()
}

// TestMJoinSourceError pins the error path over a lazy (v2) store: a
// storage failure mid-cycle aborts the run with the wrapped cause, after
// the arrivals delivered before it were received, and nothing is asked of
// the source afterwards.
func TestMJoinSourceError(t *testing.T) {
	cat, store := lazyDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(20), perSeg: 4},
		{name: "b", col: "bk", keys: seqKeys(20), perSeg: 4},
	})
	q := &Query{
		ID: "qerr",
		Relations: []Relation{
			{Table: cat.MustTable("a")},
			{Table: cat.MustTable("b")},
		},
		Joins: []JoinCond{{Rel: 1, LeftCol: "ak", RightCol: "bk"}},
	}
	boom := errors.New("csd: scheduler contract violated")
	src := &failingSource{scriptSource: scriptSource{store: store}, failAfter: 3, errOut: boom}
	res, err := Run(q, DefaultConfig(100), src)
	if res != nil || !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "mjoin: arrival: ") {
		t.Fatalf("res = %v, err = %v; want no result and %q wrapped as an arrival failure", res, err, boom)
	}
	if src.delivered != 3 || len(src.queue) != 7 {
		t.Fatalf("delivered %d arrivals with %d left queued, want 3 and 7", src.delivered, len(src.queue))
	}
}
