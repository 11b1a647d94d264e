package mjoin

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/segment"
)

// dupSource wraps scriptSource and delivers the first object of every
// request batch twice — the shape a fault-recovery re-request racing a
// coalesced transfer hands the state manager: a duplicate arrival of an
// object that is already resident. The manager consumes exactly one
// arrival per requested object, so the extra delivery stays queued and
// shifts the next cycle's arrivals — each cycle's tail object then
// arrives at the head of the following cycle, which is also legal.
type dupSource struct {
	scriptSource
	dups int
}

func (s *dupSource) Request(objs []segment.ObjectID) {
	if len(objs) >= 1 {
		objs = append([]segment.ObjectID{objs[0]}, objs...)
		s.dups++
	}
	s.scriptSource.Request(objs)
}

// TestRedeliveredArrivalNotDoubleAdmitted pins the double-admit guard:
// before it, a duplicate arrival of a cached object appended a second
// cacheOrder slot, and the stale slot later surfaced as a non-cached
// eviction victim (panic) or broke the cache-size accounting. With the
// guard, redeliveries are folded in as no-ops and results still match
// the pull-engine baseline, with and without cache pressure.
func TestRedeliveredArrivalNotDoubleAdmitted(t *testing.T) {
	cat, store := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(40), perSeg: 5}, // 8 segments
		{name: "b", col: "bk", keys: seqKeys(40), perSeg: 5}, // 8 segments
	})
	q := twoWayQuery(cat)
	want := baselineJoin(t, q, store)
	for _, cache := range []int{3, 100} {
		src := &dupSource{scriptSource: scriptSource{store: store}}
		res, err := Run(q, DefaultConfig(cache), src)
		if err != nil {
			t.Fatalf("cache %d: %v", cache, err)
		}
		if src.dups == 0 {
			t.Fatalf("cache %d: source injected no duplicate deliveries — test is vacuous", cache)
		}
		if !equalMultisets(res.Rows, want) {
			t.Fatalf("cache %d: result mismatch with duplicate deliveries (%d vs %d rows)", cache, len(res.Rows), len(want))
		}
	}
}

// foreignSource takes requests like scriptSource but delivers seg instead.
type foreignSource struct {
	scriptSource
	seg *segment.Segment
}

func (s *foreignSource) NextArrival() (*segment.Segment, error) { return s.seg, nil }

// TestUnknownArrivalPanics: an arrival of an object the query does not read
// — another table's, or an index its table does not list — comes from a
// broken source, and the state manager panics rather than admit it.
func TestUnknownArrivalPanics(t *testing.T) {
	cat, store := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(4), perSeg: 2},
		{name: "b", col: "bk", keys: seqKeys(4), perSeg: 2},
	})
	for _, id := range []segment.ObjectID{{Table: "c"}, {Table: "a", Index: 7}} {
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "not in query") {
					t.Fatalf("arrival of %v: recovered %v, want a not-in-query panic", id, r)
				}
			}()
			Run(twoWayQuery(cat), DefaultConfig(4), &foreignSource{scriptSource{store: store}, &segment.Segment{ID: id}})
		}()
	}
}
