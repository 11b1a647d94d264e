package mjoin

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// recordingSource wraps a scriptSource and records every requested id.
type recordingSource struct {
	inner     *scriptSource
	requested map[segment.ObjectID]int
}

func (s *recordingSource) Request(objs []segment.ObjectID) {
	for _, id := range objs {
		s.requested[id]++
	}
	s.inner.Request(objs)
}

func (s *recordingSource) NextArrival() (*segment.Segment, error) { return s.inner.NextArrival() }

// attachPruner compiles the filter into a stats.Pruner for the relation.
func attachPruner(t *testing.T, rel *Relation) {
	t.Helper()
	if rel.Filter == nil {
		return
	}
	p, ok := stats.ForPredicate(rel.Filter, rel.Table.Schema, rel.Table.Stats)
	if !ok {
		t.Fatalf("filter %s not prunable", rel.Filter)
	}
	rel.Pruner = p
}

// TestStatsPruningScrambledArrivals: with data skipping on, the state
// manager must never request a prunable object — under in-order and
// scrambled delivery, with and without cache pressure — and the join
// result must stay a permutation-free match of the unpruned run's multiset
// (and exactly the baseline's content).
func TestStatsPruningScrambledArrivals(t *testing.T) {
	cat, store := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(24), perSeg: 4}, // 6 segments, keys clustered
		{name: "b", col: "bk", keys: seqKeys(24), perSeg: 6}, // 4 segments
	})
	ta, tb := cat.MustTable("a"), cat.MustTable("b")
	mkQuery := func() *Query {
		q := &Query{
			ID: "prune",
			Relations: []Relation{
				{Table: ta, Filter: expr.ColBetween(ta.Schema, "ak", tuple.Int(5), tuple.Int(10))},
				{Table: tb, Filter: expr.ColLT(tb.Schema, "bk", tuple.Int(13))},
			},
			Joins: []JoinCond{{Rel: 1, LeftCol: "ak", RightCol: "bk"}},
		}
		return q
	}
	baseline := baselineJoin(t, mkQuery(), store)

	for _, scramble := range []bool{false, true} {
		for _, cache := range []int{2, 10} { // tight (reissues) and ample
			seed := int64(42)
			run := func(prune bool) (*Result, map[segment.ObjectID]int) {
				q := mkQuery()
				if prune {
					attachPruner(t, &q.Relations[0])
					attachPruner(t, &q.Relations[1])
				}
				src := &recordingSource{
					inner:     &scriptSource{store: store},
					requested: make(map[segment.ObjectID]int),
				}
				if scramble {
					rng := rand.New(rand.NewSource(seed))
					src.inner.order = func(objs []segment.ObjectID) []segment.ObjectID {
						rng.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
						return objs
					}
				}
				cfg := DefaultConfig(cache)
				cfg.StatsPruning = prune
				res, err := Run(q, cfg, src)
				if err != nil {
					t.Fatalf("scramble=%v cache=%d prune=%v: %v", scramble, cache, prune, err)
				}
				return res, src.requested
			}
			on, reqOn := run(true)
			off, reqOff := run(false)

			if !equalMultisets(on.Rows, off.Rows) || !equalMultisets(on.Rows, baseline) {
				t.Fatalf("scramble=%v cache=%d: results diverge (on %d, off %d, baseline %d rows)",
					scramble, cache, len(on.Rows), len(off.Rows), len(baseline))
			}
			if on.Stats.ObjectsSkipped == 0 || on.Stats.SubplansSkipped == 0 {
				t.Fatalf("scramble=%v cache=%d: nothing skipped: %+v", scramble, cache, on.Stats)
			}
			if off.Stats.ObjectsSkipped != 0 {
				t.Fatalf("unpruned run skipped objects: %+v", off.Stats)
			}
			if on.Stats.Requests >= off.Stats.Requests {
				t.Fatalf("scramble=%v cache=%d: pruning did not reduce requests (%d vs %d)",
					scramble, cache, on.Stats.Requests, off.Stats.Requests)
			}
			// Keys 5..10 live in a-segments 1 and 2; keys <13 in
			// b-segments 0..2. Everything else must never be GET.
			for ri, rel := range mkQuery().Relations {
				p, _ := stats.ForPredicate(rel.Filter, rel.Table.Schema, rel.Table.Stats)
				for si, id := range rel.Table.Objects {
					if p.CanSkip(si) && reqOn[id] > 0 {
						t.Fatalf("scramble=%v cache=%d: prunable object %v (rel %d) was requested",
							scramble, cache, id, ri)
					}
					if reqOff[id] == 0 {
						t.Fatalf("unpruned run never requested %v", id)
					}
				}
			}
		}
	}
}

// TestStatsPruningAllSkipped: a filter no segment can satisfy must
// terminate with zero requests and an empty result.
func TestStatsPruningAllSkipped(t *testing.T) {
	cat, store := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(8), perSeg: 4},
		{name: "b", col: "bk", keys: seqKeys(8), perSeg: 4},
	})
	ta, tb := cat.MustTable("a"), cat.MustTable("b")
	q := &Query{
		ID: "prune-all",
		Relations: []Relation{
			{Table: ta, Filter: expr.ColGE(ta.Schema, "ak", tuple.Int(1000))},
			{Table: tb},
		},
		Joins: []JoinCond{{Rel: 1, LeftCol: "ak", RightCol: "bk"}},
	}
	attachPruner(t, &q.Relations[0])
	src := &recordingSource{inner: &scriptSource{store: store}, requested: make(map[segment.ObjectID]int)}
	res, err := Run(q, DefaultConfig(len(q.Objects())), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 || res.Stats.Requests != 0 || len(src.requested) != 0 {
		t.Fatalf("rows %d, requests %d", len(res.Rows), res.Stats.Requests)
	}
	if res.Stats.SubplansSkipped != res.Stats.SubplansTotal {
		t.Fatalf("skipped %d of %d subplans", res.Stats.SubplansSkipped, res.Stats.SubplansTotal)
	}
}
