package mjoin

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/tuple"
)

// scriptSource feeds arrivals from an in-memory store, permuted by a
// configurable ordering function (identity by default).
type scriptSource struct {
	store map[segment.ObjectID]*segment.Segment
	order func(objs []segment.ObjectID) []segment.ObjectID
	queue []*segment.Segment
}

func (s *scriptSource) Request(objs []segment.ObjectID) {
	ordered := objs
	if s.order != nil {
		ordered = s.order(append([]segment.ObjectID(nil), objs...))
	}
	for _, id := range ordered {
		sg, ok := s.store[id]
		if !ok {
			panic(fmt.Sprintf("scriptSource: unknown object %v", id))
		}
		s.queue = append(s.queue, sg)
	}
}

func (s *scriptSource) NextArrival() (*segment.Segment, error) {
	if len(s.queue) == 0 {
		panic("scriptSource: NextArrival with empty queue")
	}
	sg := s.queue[0]
	s.queue = s.queue[1:]
	return sg, nil
}

// buildRelation creates a table of (key, payload) rows.
type relSpec struct {
	name   string
	col    string // key column name (unique across relations)
	keys   []int64
	perSeg int
}

func buildDB(t testing.TB, specs []relSpec) (*catalog.Catalog, map[segment.ObjectID]*segment.Segment) {
	t.Helper()
	cat := catalog.New(0)
	store := make(map[segment.ObjectID]*segment.Segment)
	for _, spec := range specs {
		sch := tuple.NewSchema(
			tuple.Column{Name: spec.col, Kind: tuple.KindInt64},
			tuple.Column{Name: spec.col + "_tag", Kind: tuple.KindString},
		)
		rows := make([]tuple.Row, len(spec.keys))
		for i, k := range spec.keys {
			rows[i] = tuple.Row{tuple.Int(k), tuple.Str(fmt.Sprintf("%s%d", spec.name, i))}
		}
		segs := segment.Split(0, spec.name, rows, spec.perSeg, 1e9)
		for _, sg := range segs {
			store[sg.ID] = sg
		}
		cat.MustAddTable(spec.name, sch, segs)
	}
	return cat, store
}

func seqKeys(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// canon renders rows as a sorted multiset fingerprint.
func canon(rows []tuple.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func equalMultisets(a, b []tuple.Row) bool {
	ca, cb := canon(a), canon(b)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// baselineJoin computes the expected result with the pull-based engine.
func baselineJoin(t testing.TB, q *Query, store map[segment.ObjectID]*segment.Segment) []tuple.Row {
	t.Helper()
	ctx := engine.NewTestCtx(store)
	its := make([]engine.Iterator, len(q.Relations))
	for i, rel := range q.Relations {
		var it engine.Iterator = engine.NewSeqScan(ctx, rel.Table)
		if rel.Filter != nil {
			it = engine.NewFilter(it, rel.Filter)
		}
		its[i] = it
	}
	it := its[0]
	for i, jc := range q.Joins {
		it = engine.JoinOn(it, its[i+1], [][2]string{{jc.LeftCol, jc.RightCol}})
	}
	rows, err := engine.Collect(it)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func twoWayQuery(cat *catalog.Catalog) *Query {
	return &Query{
		ID: "q2",
		Relations: []Relation{
			{Table: cat.MustTable("a")},
			{Table: cat.MustTable("b")},
		},
		Joins: []JoinCond{{Rel: 1, LeftCol: "ak", RightCol: "bk"}},
	}
}

func TestMJoinMatchesBaselineLargeCache(t *testing.T) {
	cat, store := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(30), perSeg: 5},
		{name: "b", col: "bk", keys: seqKeys(30), perSeg: 6},
	})
	q := twoWayQuery(cat)
	src := &scriptSource{store: store}
	res, err := Run(q, DefaultConfig(100), src)
	if err != nil {
		t.Fatal(err)
	}
	want := baselineJoin(t, q, store)
	if !equalMultisets(res.Rows, want) {
		t.Fatalf("mjoin %d rows != baseline %d rows", len(res.Rows), len(want))
	}
	if res.Stats.Cycles != 1 {
		t.Fatalf("cycles = %d, want 1", res.Stats.Cycles)
	}
	if res.Stats.Requests != 11 { // 6 + 5 segments
		t.Fatalf("requests = %d, want 11", res.Stats.Requests)
	}
	if res.Stats.Evictions != 0 {
		t.Fatalf("evictions = %d", res.Stats.Evictions)
	}
	if res.Stats.SubplansExecuted != res.Stats.SubplansTotal {
		t.Fatalf("executed %d of %d subplans", res.Stats.SubplansExecuted, res.Stats.SubplansTotal)
	}
}

func TestMJoinSmallCacheReissues(t *testing.T) {
	cat, store := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(40), perSeg: 5}, // 8 segments
		{name: "b", col: "bk", keys: seqKeys(40), perSeg: 5}, // 8 segments
	})
	q := twoWayQuery(cat)
	src := &scriptSource{store: store}
	res, err := Run(q, DefaultConfig(3), src)
	if err != nil {
		t.Fatal(err)
	}
	want := baselineJoin(t, q, store)
	if !equalMultisets(res.Rows, want) {
		t.Fatalf("mjoin result mismatch under cache pressure")
	}
	if res.Stats.Requests <= 16 {
		t.Fatalf("requests = %d, expected reissues beyond the 16 objects", res.Stats.Requests)
	}
	if res.Stats.Evictions == 0 {
		t.Fatal("expected evictions under cache pressure")
	}
}

func TestMJoinThreeWayChain(t *testing.T) {
	cat, store := buildDB(t, []relSpec{
		{name: "a", col: "k", keys: seqKeys(12), perSeg: 4},
		{name: "b", col: "k2", keys: seqKeys(12), perSeg: 3},
		{name: "c", col: "k3", keys: seqKeys(12), perSeg: 6},
	})
	q := &Query{
		ID: "q3",
		Relations: []Relation{
			{Table: cat.MustTable("a")},
			{Table: cat.MustTable("b")},
			{Table: cat.MustTable("c")},
		},
		Joins: []JoinCond{
			{Rel: 1, LeftCol: "k", RightCol: "k2"},
			{Rel: 2, LeftCol: "k2", RightCol: "k3"},
		},
	}
	for _, cache := range []int{3, 4, 7, 50} {
		src := &scriptSource{store: store}
		res, err := Run(q, DefaultConfig(cache), src)
		if err != nil {
			t.Fatalf("cache %d: %v", cache, err)
		}
		want := baselineJoin(t, q, store)
		if !equalMultisets(res.Rows, want) {
			t.Fatalf("cache %d: result mismatch (%d vs %d rows)", cache, len(res.Rows), len(want))
		}
	}
}

func TestMJoinWithFiltersMatchesBaseline(t *testing.T) {
	cat, store := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(30), perSeg: 5},
		{name: "b", col: "bk", keys: seqKeys(30), perSeg: 5},
	})
	aSch := cat.MustTable("a").Schema
	bSch := cat.MustTable("b").Schema
	q := &Query{
		ID: "qf",
		Relations: []Relation{
			{Table: cat.MustTable("a"), Filter: expr.ColGE(aSch, "ak", tuple.Int(10))},
			{Table: cat.MustTable("b"), Filter: expr.ColLT(bSch, "bk", tuple.Int(20))},
		},
		Joins: []JoinCond{{Rel: 1, LeftCol: "ak", RightCol: "bk"}},
	}
	src := &scriptSource{store: store}
	res, err := Run(q, DefaultConfig(4), src)
	if err != nil {
		t.Fatal(err)
	}
	want := baselineJoin(t, q, store)
	if !equalMultisets(res.Rows, want) {
		t.Fatalf("filtered mjoin mismatch: %d vs %d rows", len(res.Rows), len(want))
	}
	// keys 10..19 join: 10 rows
	if len(res.Rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(res.Rows))
	}
}

func TestPruningSkipsDeadObjects(t *testing.T) {
	// Relation a: keys 0..29 in 6 segments of 5; filter keeps only keys
	// < 5, i.e. only segment 0 of a has matching rows. With pruning, the
	// other 5 segments are pruned on first arrival and never refetched.
	cat, store := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(30), perSeg: 5},
		{name: "b", col: "bk", keys: seqKeys(30), perSeg: 5},
	})
	aSch := cat.MustTable("a").Schema
	mkQuery := func() *Query {
		return &Query{
			ID: "qp",
			Relations: []Relation{
				{Table: cat.MustTable("a"), Filter: expr.ColLT(aSch, "ak", tuple.Int(5))},
				{Table: cat.MustTable("b")},
			},
			Joins: []JoinCond{{Rel: 1, LeftCol: "ak", RightCol: "bk"}},
		}
	}

	cfgOn := DefaultConfig(3)
	srcOn := &scriptSource{store: store}
	resOn, err := Run(mkQuery(), cfgOn, srcOn)
	if err != nil {
		t.Fatal(err)
	}

	cfgOff := DefaultConfig(3)
	cfgOff.Pruning = false
	srcOff := &scriptSource{store: store}
	resOff, err := Run(mkQuery(), cfgOff, srcOff)
	if err != nil {
		t.Fatal(err)
	}

	if !equalMultisets(resOn.Rows, resOff.Rows) {
		t.Fatal("pruning changed the result")
	}
	if len(resOn.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(resOn.Rows))
	}
	if resOn.Stats.SubplansPruned == 0 {
		t.Fatal("no subplans pruned")
	}
	if resOn.Stats.Requests >= resOff.Stats.Requests {
		t.Fatalf("pruning did not reduce requests: %d vs %d", resOn.Stats.Requests, resOff.Stats.Requests)
	}
}

func TestCacheTooSmallRejected(t *testing.T) {
	cat, _ := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(4), perSeg: 2},
		{name: "b", col: "bk", keys: seqKeys(4), perSeg: 2},
	})
	q := twoWayQuery(cat)
	if _, err := Run(q, DefaultConfig(1), &scriptSource{}); err == nil {
		t.Fatal("cache smaller than relation count accepted")
	}
}

func TestInvalidQueryRejected(t *testing.T) {
	cat, _ := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(4), perSeg: 2},
		{name: "b", col: "bk", keys: seqKeys(4), perSeg: 2},
	})
	q := &Query{
		ID:        "bad",
		Relations: []Relation{{Table: cat.MustTable("a")}, {Table: cat.MustTable("b")}},
		Joins:     []JoinCond{{Rel: 1, LeftCol: "nope", RightCol: "bk"}},
	}
	if _, err := Run(q, DefaultConfig(10), &scriptSource{}); err == nil {
		t.Fatal("bad join column accepted")
	}
	q2 := &Query{ID: "bad2", Relations: []Relation{{Table: cat.MustTable("a")}}, Joins: []JoinCond{{Rel: 1}}}
	if _, err := Run(q2, DefaultConfig(10), &scriptSource{}); err == nil {
		t.Fatal("join-count mismatch accepted")
	}
	self := &Query{
		ID:        "self",
		Relations: []Relation{{Table: cat.MustTable("a")}, {Table: cat.MustTable("a")}},
		Joins:     []JoinCond{{Rel: 1, LeftCol: "ak", RightCol: "ak"}},
		Out:       []string{"ak"},
	}
	if _, err := Run(self, DefaultConfig(10), &scriptSource{}); err == nil || !strings.Contains(err.Error(), "two relations") {
		t.Fatalf("self-join: err = %v, want one reading a table in two relations", err)
	}
}

// TestValidatedQueryChangedInPlacePanics: Validate keeps the compiled plan
// in the query, and every run reuses it, so a query changed in place after
// Validate would run a stale plan. A test binary recompiles on every reuse
// and panics, naming the query, when the two plans differ. A copy of a
// validated query — changed or not — compiles a plan of its own.
func TestValidatedQueryChangedInPlacePanics(t *testing.T) {
	cat, store := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(6), perSeg: 2},
		{name: "b", col: "bk", keys: seqKeys(4), perSeg: 2},
	})
	q := twoWayQuery(cat)
	if _, err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	narrow := *q
	narrow.Out = []string{"ak"}
	for _, c := range []*Query{q, &narrow} {
		if _, err := Run(c, DefaultConfig(10), &scriptSource{store: store}); err != nil {
			t.Fatal(err)
		}
	}
	if got := narrow.OutputSchema().ColumnNames(); !reflect.DeepEqual(got, []string{"ak"}) {
		t.Fatalf("the changed copy outputs %v, want [ak]", got)
	}

	q.Out = []string{"bk"}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "query q2 was changed after Validate") {
			t.Fatalf("run of a query changed after Validate: recovered %q, want a panic naming the query", msg)
		}
	}()
	Run(q, DefaultConfig(10), &scriptSource{store: store})
	t.Fatal("a run of a query changed after Validate did not panic")
}

func TestGetCountMonotoneInCacheSize(t *testing.T) {
	cat, store := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(36), perSeg: 6},
		{name: "b", col: "bk", keys: seqKeys(36), perSeg: 6},
	})
	q := twoWayQuery(cat)
	prev := int(^uint(0) >> 1)
	for _, cache := range []int{2, 3, 4, 6, 8, 12} {
		src := &scriptSource{store: store}
		res, err := Run(q, DefaultConfig(cache), src)
		if err != nil {
			t.Fatalf("cache %d: %v", cache, err)
		}
		if res.Stats.Requests > prev {
			t.Fatalf("requests grew with cache size: cache %d -> %d GETs (prev %d)", cache, res.Stats.Requests, prev)
		}
		prev = res.Stats.Requests
	}
}

// TestMJoinRandomizedEquivalence is the core correctness property: for
// random databases, cache sizes, arrival orders and eviction policies,
// MJoin produces exactly the pull-based engine's join result.
func TestMJoinRandomizedEquivalence(t *testing.T) {
	policies := []EvictionPolicy{MaxProgress{}, MaxPending{}, LRU{}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nrels := 2 + rng.Intn(2)
		specs := make([]relSpec, nrels)
		for i := range specs {
			n := 4 + rng.Intn(20)
			keys := make([]int64, n)
			for j := range keys {
				keys[j] = int64(rng.Intn(12)) // dense keys: many matches
			}
			specs[i] = relSpec{
				name:   string(rune('a' + i)),
				col:    fmt.Sprintf("k%d", i),
				keys:   keys,
				perSeg: 1 + rng.Intn(5),
			}
		}
		cat, store := buildDB(t, specs)
		rels := make([]Relation, nrels)
		joins := make([]JoinCond, nrels-1)
		for i, spec := range specs {
			rels[i] = Relation{Table: cat.MustTable(spec.name)}
			if i > 0 {
				joins[i-1] = JoinCond{Rel: i, LeftCol: fmt.Sprintf("k%d", i-1), RightCol: fmt.Sprintf("k%d", i)}
			}
		}
		q := &Query{ID: "rand", Relations: rels, Joins: joins}
		want := baselineJoin(t, q, store)

		cfg := DefaultConfig(nrels + rng.Intn(8))
		cfg.Policy = policies[rng.Intn(len(policies))]
		cfg.Pruning = rng.Intn(2) == 0
		src := &scriptSource{store: store, order: func(objs []segment.ObjectID) []segment.ObjectID {
			rng.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
			return objs
		}}
		res, err := Run(q, cfg, src)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if !equalMultisets(res.Rows, want) {
			t.Logf("seed %d: %d rows vs baseline %d (policy %s, cache %d)",
				seed, len(res.Rows), len(want), cfg.Policy.Name(), cfg.CacheSize)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The paper's rejected eviction policies live here, as what the policy
// seam (Config.Policy) is tested with: MaxProgress is the one policy a run
// uses, and decisions.golden pins how the three differ.

// MaxPending is the paper's first cut (§4.2 "Maximal number of pending
// subplans"): evict the object with the fewest pending subplans. It stalls
// at low cache capacities because it ignores what is actually executable
// right now.
type MaxPending struct{}

// Name implements EvictionPolicy.
func (MaxPending) Name() string { return "max-pending" }

// PickVictim implements EvictionPolicy: fewest pending subplans wins.
func (MaxPending) PickVictim(cached []segment.ObjectID, _ segment.ObjectID, info PolicyInfo) segment.ObjectID {
	victim := cached[0]
	best := info.PendingCount(victim)
	for _, id := range cached[1:] {
		if p := info.PendingCount(id); p < best {
			victim, best = id, p
		}
	}
	return victim
}

// LRU evicts the least-recently-arrived object: storage-oblivious
// caching, which wastes reissues.
type LRU struct{}

// Name implements EvictionPolicy.
func (LRU) Name() string { return "lru" }

// PickVictim implements EvictionPolicy: oldest arrival goes first.
func (LRU) PickVictim(cached []segment.ObjectID, _ segment.ObjectID, info PolicyInfo) segment.ObjectID {
	victim := cached[0]
	best := info.ArrivalSeq(victim)
	for _, id := range cached[1:] {
		if s := info.ArrivalSeq(id); s < best {
			victim, best = id, s
		}
	}
	return victim
}

// fakeInfo scripts PolicyInfo for direct policy tests.
type fakeInfo struct {
	pending    map[segment.ObjectID]int
	executable map[segment.ObjectID]int
	seq        map[segment.ObjectID]int
}

func (f fakeInfo) PendingCount(id segment.ObjectID) int    { return f.pending[id] }
func (f fakeInfo) ExecutableCount(id segment.ObjectID) int { return f.executable[id] }
func (f fakeInfo) ArrivalSeq(id segment.ObjectID) int      { return f.seq[id] }

func obj(table string, idx int) segment.ObjectID {
	return segment.ObjectID{Table: table, Index: idx}
}

// TestPaperTable2Example reproduces §4.2's worked example: cache holds
// (A.1, B.1, A.2, C.3), C.1 arrives; executable counts are A.1=1, A.2=1,
// B.1=2, C.3=0; max-progress must evict C.3, while max-pending would
// consider B.1 and C.3 (both at 2 pending) and picks the first-arrived.
func TestPaperTable2Example(t *testing.T) {
	cached := []segment.ObjectID{obj("A", 1), obj("B", 1), obj("A", 2), obj("C", 3)}
	info := fakeInfo{
		pending:    map[segment.ObjectID]int{obj("C", 1): 4, obj("A", 1): 3, obj("A", 2): 3, obj("B", 1): 2, obj("C", 3): 2},
		executable: map[segment.ObjectID]int{obj("A", 1): 1, obj("A", 2): 1, obj("B", 1): 2, obj("C", 3): 0},
		seq:        map[segment.ObjectID]int{obj("A", 1): 1, obj("B", 1): 2, obj("A", 2): 3, obj("C", 3): 4},
	}
	if v := (MaxProgress{}).PickVictim(cached, obj("C", 1), info); v != obj("C", 3) {
		t.Fatalf("max-progress evicted %v, want C.3", v)
	}
	v := (MaxPending{}).PickVictim(cached, obj("C", 1), info)
	if v != obj("B", 1) && v != obj("C", 3) {
		t.Fatalf("max-pending evicted %v, want B.1 or C.3", v)
	}
	if v := (LRU{}).PickVictim(cached, obj("C", 1), info); v != obj("A", 1) {
		t.Fatalf("lru evicted %v, want A.1", v)
	}
}

func TestNumSubplans(t *testing.T) {
	cat, _ := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(10), perSeg: 5}, // 2 segs
		{name: "b", col: "bk", keys: seqKeys(9), perSeg: 3},  // 3 segs
	})
	q := twoWayQuery(cat)
	if n, err := q.NumSubplans(); n != 6 || err != nil {
		t.Fatalf("subplans = %d (%v), want 6", n, err)
	}
}

// TestReissueModelShape checks §5.2.4's analytical trend: the number of
// cycles grows as the cache shrinks, roughly like (R·S/C)^(R-1).
func TestReissueModelShape(t *testing.T) {
	cat, store := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(64), perSeg: 8}, // 8 segs
		{name: "b", col: "bk", keys: seqKeys(64), perSeg: 8}, // 8 segs
	})
	q := twoWayQuery(cat)
	cycles := map[int]int{}
	for _, cache := range []int{2, 4, 8, 16} {
		src := &scriptSource{store: store}
		res, err := Run(q, DefaultConfig(cache), src)
		if err != nil {
			t.Fatal(err)
		}
		cycles[cache] = res.Stats.Cycles
	}
	if !(cycles[2] >= cycles[4] && cycles[4] >= cycles[8] && cycles[8] >= cycles[16]) {
		t.Fatalf("cycles not monotone: %v", cycles)
	}
	if cycles[16] != 1 {
		t.Fatalf("full cache should finish in one cycle, got %d", cycles[16])
	}
	if cycles[2] < 2 {
		t.Fatalf("tiny cache should need multiple cycles, got %d", cycles[2])
	}
}

// TestLatticeOverflowRejected: five relations of 2^13 segments make a
// lattice of 2^65 subplans. NumSubplans and NewStream report that as an
// error instead of wrapping around; four of them, 2^52 subplans, still
// count, and a relation without segments makes any lattice empty.
func TestLatticeOverflowRejected(t *testing.T) {
	rels, joins := make([]Relation, 6), make([]JoinCond, 5)
	for i := range rels {
		name, col := string(rune('a'+i)), fmt.Sprintf("k%d", i)
		tm := &catalog.TableMeta{Name: name, Schema: tuple.NewSchema(tuple.Column{Name: col, Kind: tuple.KindInt64})}
		if i < 5 {
			tm.Objects = make([]segment.ObjectID, 1<<13)
		}
		for s := range tm.Objects {
			tm.Objects[s] = segment.ObjectID{Table: name, Index: s}
		}
		rels[i] = Relation{Table: tm}
		if i > 0 {
			joins[i-1] = JoinCond{Rel: i, LeftCol: fmt.Sprintf("k%d", i-1), RightCol: col}
		}
	}
	q := &Query{ID: "huge", Relations: rels[:5], Joins: joins[:4]}
	if n, err := q.NumSubplans(); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("NumSubplans of a 2^65 lattice = %d, %v; want an overflow error", n, err)
	}
	if _, err := NewStream(q, DefaultConfig(5), &scriptSource{}); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("NewStream over a 2^65 lattice: err = %v, want an overflow error", err)
	}
	q.Relations, q.Joins = rels[:4], joins[:3]
	if n, err := q.NumSubplans(); n != 1<<52 || err != nil {
		t.Fatalf("NumSubplans of four relations = %d, %v; want 2^52", n, err)
	}
	q.Relations, q.Joins = rels, joins
	if n, err := q.NumSubplans(); n != 0 || err != nil {
		t.Fatalf("NumSubplans with an empty relation = %d, %v; want 0", n, err)
	}
}
