package mjoin

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/tuple"
)

// referenceProbe is the probe chain this package ran before partial tuples
// became row ids, kept as the oracle for the one that replaced it: every
// root row is materialized, each level hashes the partials' key out of the
// concatenated row, looks the hash up in a map of per-key row lists built
// here from the entry's batch, and copies partial and match into a new row
// per match. It shares nothing with probeLevels but the cached batches.
func referenceProbe(q *Query, entries []*cacheEntry) []tuple.Row {
	for _, e := range entries {
		if e.batch.Len() == 0 {
			return nil
		}
	}
	root := entries[0].batch
	cur := make([]tuple.Row, root.Len())
	for i := range cur {
		cur[i] = root.Row(i)
	}
	acc := root.Schema()
	for depth := 1; depth < len(entries); depth++ {
		e := entries[depth]
		leftIdx := []int{acc.MustColIndex(q.Joins[depth-1].LeftCol)}
		acc = acc.Concat(e.batch.Schema())
		table := make(map[uint64][]int32)
		for i, h := range e.batch.HashColumns([]int{e.keyIdx}, nil) {
			table[h] = append(table[h], int32(i))
		}
		keyCol, keyKind := e.batch.Col(e.keyIdx), e.batch.Schema().Cols[e.keyIdx].Kind
		var next []tuple.Row
		for _, p := range cur {
			key := p[leftIdx[0]]
			for _, mi := range table[tuple.HashRowKey(p, leftIdx)] {
				if mv := keyCol.Value(keyKind, int(mi)); mv.K != key.K || !tuple.Equal(key, mv) {
					continue
				}
				next = append(next, e.batch.AppendRowTo(p.Clone(), int(mi)))
			}
		}
		cur = next
	}
	return cur
}

// runWithReference streams q and, beside it, feeds every subplan's cache
// entries to referenceProbe: it returns what the probe chain emitted and
// what the reference says it should have, both in execution order.
func runWithReference(t *testing.T, q *Query, cfg Config, src Source) (got, want []tuple.Row, stats Stats) {
	t.Helper()
	m, err := NewStream(q, cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	m.onSubplan = func(entries []*cacheEntry) {
		want = append(want, referenceProbe(q, entries)...)
	}
	got = drain(t, m)
	return got, want, m.Stats()
}

// drain pulls a stream to its end, copying every chunk as it comes, and
// checks that no chunk is empty and that Stats.ResultRows counts them all.
func drain(t *testing.T, m *Stream) []tuple.Row {
	t.Helper()
	var rows []tuple.Row
	for {
		b, ok, err := m.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if b.Len() == 0 {
			t.Fatal("empty output chunk")
		}
		rows = b.AppendRows(rows)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if n := m.Stats().ResultRows; n != len(rows) {
		t.Fatalf("Stats.ResultRows = %d, chunks hold %d rows", n, len(rows))
	}
	return rows
}

// probeMatrix runs cell over the matrix of TestProbeChainMatchesRowReference:
// random three-way chains whose keys are few enough that index buckets hold
// several keys and several rows per key, for shuffled arrival orders, a
// cache of exactly R, R+1 and every object, a root that spans several probe
// chunks and runtime pruning on and off (off leaves empty legs in the
// cache). Each cell comes with an in-memory query and a lazily decoded v2
// one that also projects relation c down to its key, and with constructors
// of fresh sources that deliver the cell's arrival order.
func probeMatrix(t *testing.T, cell func(label string, cfg Config, memQ, v2Q *Query, mem, v2 func() Source)) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs := []relSpec{
			{name: "a", col: "k0", keys: denseKeys(rng, 2600, 60), perSeg: 1300},
			{name: "b", col: "k1", keys: denseKeys(rng, 90, 60), perSeg: 30},
			{name: "c", col: "k2", keys: denseKeys(rng, 80, 60), perSeg: 20},
		}
		memCat, memStore := buildDB(t, specs)
		lazyCat, lazyStore := lazyDB(t, specs)
		mkQuery := func(cat *catalog.Catalog, project bool) *Query {
			// The filters empty some objects of b entirely (keys are
			// dense, segments small) and thin out the rest.
			bSch, cSch := cat.MustTable("b").Schema, cat.MustTable("c").Schema
			q := &Query{
				ID: "ref",
				Relations: []Relation{
					{Table: cat.MustTable("a")},
					{Table: cat.MustTable("b"), Filter: expr.ColLT(bSch, "k1", tuple.Int(45))},
					{Table: cat.MustTable("c"), Filter: expr.ColGE(cSch, "k2", tuple.Int(5))},
				},
				Joins: []JoinCond{
					{Rel: 1, LeftCol: "k0", RightCol: "k1"},
					{Rel: 2, LeftCol: "k1", RightCol: "k2"},
				},
			}
			if project {
				q.Relations[2].Cols = []int{0}
			}
			return q
		}
		objects := len(mkQuery(memCat, false).Objects())
		for _, cache := range []int{3, 4, objects} {
			for _, prune := range []bool{true, false} {
				cfg := DefaultConfig(cache)
				cfg.Pruning = prune
				shuffled := func(store map[segment.ObjectID]*segment.Segment) func() Source {
					return func() Source {
						srng := rand.New(rand.NewSource(seed*7 + int64(cache)))
						return &scriptSource{store: store, order: func(objs []segment.ObjectID) []segment.ObjectID {
							srng.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
							return objs
						}}
					}
				}
				cell(fmt.Sprintf("seed %d cache %d prune %v", seed, cache, prune), cfg,
					mkQuery(memCat, false), mkQuery(lazyCat, true), shuffled(memStore), shuffled(lazyStore))
			}
		}
	}
}

// TestProbeChainMatchesRowReference is the differential test of the
// row-free probe path: over probeMatrix, the output must equal the
// row-at-a-time reference's row for row, in the same order, and the v2
// runs, whose cache entries and output are a column narrower, must agree
// with the in-memory run up to that column.
func TestProbeChainMatchesRowReference(t *testing.T) {
	probeMatrix(t, func(label string, cfg Config, memQ, v2Q *Query, memSrc, v2Src func() Source) {
		mem, memWant, memStats := runWithReference(t, memQ, cfg, memSrc())
		if len(mem) == 0 {
			t.Fatalf("%s: no output rows; test is vacuous", label)
		}
		if !reflect.DeepEqual(renderInOrder(mem), renderInOrder(memWant)) {
			t.Fatalf("%s mem: probe chain diverges from the row reference (%d vs %d rows)", label, len(mem), len(memWant))
		}
		lazy, lazyWant, lazyStats := runWithReference(t, v2Q, cfg, v2Src())
		if !reflect.DeepEqual(renderInOrder(lazy), renderInOrder(lazyWant)) {
			t.Fatalf("%s v2: probe chain diverges from the row reference (%d vs %d rows)", label, len(lazy), len(lazyWant))
		}
		// Same arrival order, same data: the v2 run returns the
		// in-memory run's rows without c's tag column.
		for i, r := range mem {
			mem[i] = r[:len(r)-1]
		}
		if !reflect.DeepEqual(mem, lazy) {
			t.Fatalf("%s: v2 rows differ from in-memory rows", label)
		}
		lazyStats.BytesFetched, lazyStats.BytesDecoded = 0, 0
		lazyStats.BytesSkippedByProjection, lazyStats.BytesMaterialized = 0, 0
		if !statsEqualIgnoringPipe(memStats, lazyStats) {
			t.Fatalf("%s: stats diverge\nmem: %+v\nv2:  %+v", label, memStats, lazyStats)
		}
		if !cfg.Pruning && memStats.SubplansPruned != 0 {
			t.Fatalf("%s: pruning off, yet %d subplans pruned", label, memStats.SubplansPruned)
		}
	})
}

// denseKeys draws n keys from a small domain so chains multiply matches.
func denseKeys(rng *rand.Rand, n, domain int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(rng.Intn(domain))
	}
	return out
}

// renderInOrder renders rows positionally (no sorting), so a comparison
// holds row order as well as the multiset.
func renderInOrder(rows []tuple.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// TestBuildProbePlanOwners: a join's left key is located by the relation
// that owns it and the column within that relation, wherever in the chain
// that relation sits.
func TestBuildProbePlanOwners(t *testing.T) {
	cat, _ := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(2), perSeg: 2},
		{name: "b", col: "bk", keys: seqKeys(2), perSeg: 2},
		{name: "c", col: "ck", keys: seqKeys(2), perSeg: 2},
		{name: "d", col: "dk", keys: seqKeys(2), perSeg: 2},
	})
	q := &Query{
		ID: "owners",
		Relations: []Relation{
			{Table: cat.MustTable("a")}, {Table: cat.MustTable("b")},
			{Table: cat.MustTable("c")}, {Table: cat.MustTable("d")},
		},
		Joins: []JoinCond{
			{Rel: 1, LeftCol: "ak_tag", RightCol: "bk_tag"},
			{Rel: 2, LeftCol: "ak", RightCol: "ck"},
			{Rel: 3, LeftCol: "bk_tag", RightCol: "dk_tag"},
		},
	}
	pp, err := buildProbePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 0, 1}; !reflect.DeepEqual(pp.leftRel, want) {
		t.Fatalf("leftRel = %v, want %v", pp.leftRel, want)
	}
	if want := []int{1, 0, 1}; !reflect.DeepEqual(pp.leftCol, want) {
		t.Fatalf("leftCol = %v, want %v", pp.leftCol, want)
	}
}

// TestRunAllocationsDoNotScaleWithRows: a run allocates per object, per
// output chunk and per subplan, never per row. Two databases with the same
// objects and subplans, one with four times the rows in every object, must
// cost about the same number of allocations — a per-row allocation
// anywhere on the arrival, probe or output path shows as a factor near 4.
func TestRunAllocationsDoNotScaleWithRows(t *testing.T) {
	allocs := func(rowsPerObject int, lazy bool) float64 {
		// Two objects per relation; every key matches exactly once down the
		// chain, so the output grows with the input.
		n := 2 * rowsPerObject
		specs := []relSpec{
			{name: "a", col: "k0", keys: seqKeys(n), perSeg: rowsPerObject},
			{name: "b", col: "k1", keys: seqKeys(n), perSeg: rowsPerObject},
			{name: "c", col: "k2", keys: seqKeys(n), perSeg: rowsPerObject},
		}
		build := buildDB
		if lazy {
			build = lazyDB
		}
		cat, store := build(t, specs)
		bSch := cat.MustTable("b").Schema
		q := &Query{
			ID: "alloc",
			Relations: []Relation{
				{Table: cat.MustTable("a")},
				{Table: cat.MustTable("b"), Filter: expr.ColGE(bSch, "k1", tuple.Int(int64(n/8)))},
				{Table: cat.MustTable("c")},
			},
			Joins: []JoinCond{
				{Rel: 1, LeftCol: "k0", RightCol: "k1"},
				{Rel: 2, LeftCol: "k1", RightCol: "k2"},
			},
		}
		if lazy {
			// The v2 decoder allocates every raw string it decodes; keep
			// the unique tags out of the decoded set, so that this measures
			// the join path and not the codec.
			for r := range q.Relations {
				q.Relations[r].Cols = []int{0}
			}
		}
		rows := 0
		avg := testing.AllocsPerRun(5, func() {
			res, err := Run(q, DefaultConfig(4), &scriptSource{store: store})
			if err != nil {
				t.Fatal(err)
			}
			rows = len(res.Rows)
		})
		if want := n - n/8; rows != want {
			t.Fatalf("%d rows per object: %d output rows, want %d", rowsPerObject, rows, want)
		}
		return avg
	}
	for _, lazy := range []bool{false, true} {
		small, large := allocs(200, lazy), allocs(800, lazy)
		t.Logf("lazy=%v: %.0f allocations at 200 rows per object, %.0f at 800", lazy, small, large)
		if large > 1.25*small {
			t.Errorf("lazy=%v: allocations grew from %.0f to %.0f (x%.2f) with 4x the rows per object; want within x1.25",
				lazy, small, large, large/small)
		}
	}
}
