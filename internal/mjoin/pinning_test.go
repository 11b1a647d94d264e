package mjoin

import (
	"fmt"
	"testing"

	"repro/internal/segment"
)

// adversarialSource delivers arrivals in an order crafted to starve a
// minimal cache: within each cycle it returns all of relation a before
// any of relation b, reversed on alternating cycles, which historically
// livelocked the greedy eviction policies.
type adversarialSource struct {
	store map[segment.ObjectID]*segment.Segment
	queue []*segment.Segment
	cycle int
}

func (s *adversarialSource) Request(objs []segment.ObjectID) {
	s.cycle++
	byTable := map[string][]segment.ObjectID{}
	var tables []string
	for _, id := range objs {
		if _, ok := byTable[id.Table]; !ok {
			tables = append(tables, id.Table)
		}
		byTable[id.Table] = append(byTable[id.Table], id)
	}
	if s.cycle%2 == 0 {
		for i, j := 0, len(tables)-1; i < j; i, j = i+1, j-1 {
			tables[i], tables[j] = tables[j], tables[i]
		}
	}
	for _, tbl := range tables {
		for _, id := range byTable[tbl] {
			s.queue = append(s.queue, s.store[id])
		}
	}
}

func (s *adversarialSource) NextArrival() (*segment.Segment, error) {
	sg := s.queue[0]
	s.queue = s.queue[1:]
	return sg, nil
}

// TestPinningBreaksLivelock runs LRU (the most thrash-prone policy) at the
// minimal legal cache size against the adversarial order. Without the
// designated-subplan pinning the state manager loops forever; with it the
// join completes and matches the baseline.
func TestPinningBreaksLivelock(t *testing.T) {
	cat, store := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(24), perSeg: 4}, // 6 segments
		{name: "b", col: "bk", keys: seqKeys(24), perSeg: 4}, // 6 segments
	})
	q := twoWayQuery(cat)
	cfg := DefaultConfig(2) // exactly one object per relation
	cfg.Policy = LRU{}
	cfg.MaxCycles = 10000
	src := &adversarialSource{store: store}
	res, err := Run(q, cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	want := baselineJoin(t, q, store)
	if !equalMultisets(res.Rows, want) {
		t.Fatalf("result mismatch: %d vs %d rows", len(res.Rows), len(want))
	}
	if res.Stats.SubplansExecuted != 36 {
		t.Fatalf("executed %d subplans, want 36", res.Stats.SubplansExecuted)
	}
	// Termination bound: with one guaranteed subplan per pinned cycle,
	// cycles stay well under the worst case of 2 per subplan.
	if res.Stats.Cycles > 2*36+2 {
		t.Fatalf("cycles %d exceed the pinning progress bound", res.Stats.Cycles)
	}
	if res.Stats.PinnedCycles == 0 {
		t.Fatal("adversarial order should have engaged the pinning escape hatch")
	}
}

// TestNoPinningOnCooperativeOrder: with the semantic round-robin style
// delivery (the paper's setting) pinning never engages.
func TestNoPinningOnCooperativeOrder(t *testing.T) {
	cat, store := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(24), perSeg: 4},
		{name: "b", col: "bk", keys: seqKeys(24), perSeg: 4},
	})
	q := twoWayQuery(cat)
	// scriptSource delivers in request order; the state manager requests
	// relation-by-relation, which at cache 4 still makes progress every
	// cycle via executable pairs.
	src := &scriptSource{store: store, order: func(objs []segment.ObjectID) []segment.ObjectID {
		// Interleave relations: a.0, b.0, a.1, b.1, ... (semantic order).
		var as, bs, out []segment.ObjectID
		for _, id := range objs {
			if id.Table == "a" {
				as = append(as, id)
			} else {
				bs = append(bs, id)
			}
		}
		for i := 0; i < len(as) || i < len(bs); i++ {
			if i < len(as) {
				out = append(out, as[i])
			}
			if i < len(bs) {
				out = append(out, bs[i])
			}
		}
		return out
	}}
	res, err := Run(q, DefaultConfig(4), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PinnedCycles != 0 {
		t.Fatalf("pinning engaged %d times on a cooperative order", res.Stats.PinnedCycles)
	}
}

// TestPinningAllPoliciesTerminate sweeps tight caches and policies under
// the adversarial order: everything must finish and agree.
func TestPinningAllPoliciesTerminate(t *testing.T) {
	cat, store := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(15), perSeg: 3},
		{name: "b", col: "bk", keys: seqKeys(15), perSeg: 3},
		{name: "c", col: "ck", keys: seqKeys(15), perSeg: 5},
	})
	q := &Query{
		ID: "q3",
		Relations: []Relation{
			{Table: cat.MustTable("a")},
			{Table: cat.MustTable("b")},
			{Table: cat.MustTable("c")},
		},
		Joins: []JoinCond{
			{Rel: 1, LeftCol: "ak", RightCol: "bk"},
			{Rel: 2, LeftCol: "bk", RightCol: "ck"},
		},
	}
	want := baselineJoin(t, q, store)
	for _, pol := range []EvictionPolicy{MaxProgress{}, MaxPending{}, LRU{}} {
		for cache := 3; cache <= 5; cache++ {
			cfg := DefaultConfig(cache)
			cfg.Policy = pol
			cfg.MaxCycles = 100000
			src := &adversarialSource{store: store}
			res, err := Run(q, cfg, src)
			if err != nil {
				t.Fatalf("%s cache %d: %v", pol.Name(), cache, err)
			}
			if !equalMultisets(res.Rows, want) {
				t.Fatalf("%s cache %d: wrong result", pol.Name(), cache)
			}
		}
	}
}

func TestPolicyNamesAndDefaults(t *testing.T) {
	names := map[string]bool{}
	for _, pol := range []EvictionPolicy{MaxProgress{}, MaxPending{}, LRU{}} {
		n := pol.Name()
		if n == "" || names[n] {
			t.Fatalf("bad policy name %q", n)
		}
		names[n] = true
	}
}

func TestQueryAccessors(t *testing.T) {
	cat, _ := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(6), perSeg: 2}, // 3 segments
		{name: "b", col: "bk", keys: seqKeys(4), perSeg: 2}, // 2 segments
	})
	q := twoWayQuery(cat)
	if got := len(q.Objects()); got != 5 {
		t.Fatalf("objects %d", got)
	}
	sch := q.OutputSchema()
	if sch.Len() != 4 { // ak, ak_tag, bk, bk_tag
		t.Fatalf("output schema %v", sch)
	}
	bad := &Query{ID: "bad"}
	defer func() {
		if recover() == nil {
			t.Fatal("OutputSchema of invalid query did not panic")
		}
	}()
	bad.OutputSchema()
}

// TestReissueCountFollowsModel sanity-checks §5.2.4's analytical claim
// that with cache C the number of cycles scales like (R·S/C)^(R-1) for R
// relations of S segments: halving the cache should at least double the
// 2-relation cycle count in the reissue-bound regime.
func TestReissueCountFollowsModel(t *testing.T) {
	const segs = 12
	cat, store := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(segs * 2), perSeg: 2},
		{name: "b", col: "bk", keys: seqKeys(segs * 2), perSeg: 2},
	})
	q := twoWayQuery(cat)
	cycles := func(cache int) int {
		src := &scriptSource{store: store}
		res, err := Run(q, DefaultConfig(cache), src)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Cycles
	}
	c4, c8 := cycles(4), cycles(8)
	if c4 < 2*c8-2 {
		t.Fatalf("cycles(4)=%d vs cycles(8)=%d: halving cache did not ~double cycles (%s)",
			c4, c8, fmt.Sprintf("model predicts ~%d", 2*c8))
	}
}
