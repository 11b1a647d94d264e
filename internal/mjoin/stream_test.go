package mjoin

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/segment"
)

// TestStreamMatchesRun: over probeMatrix, a consumer that pulls the stream
// and copies each chunk as it comes sees Run's rows in Run's order, and the
// stream ends with Run's statistics.
func TestStreamMatchesRun(t *testing.T) {
	probeMatrix(t, func(label string, cfg Config, memQ, v2Q *Query, memSrc, v2Src func() Source) {
		for _, c := range []struct {
			name string
			q    *Query
			src  func() Source
		}{{"mem", memQ, memSrc}, {"v2", v2Q, v2Src}} {
			want, err := Run(c.q, cfg, c.src())
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewStream(c.q, cfg, c.src())
			if err != nil {
				t.Fatal(err)
			}
			got := drain(t, m)
			if !reflect.DeepEqual(renderInOrder(got), renderInOrder(want.Rows)) {
				t.Fatalf("%s %s: streamed %d rows, Run returned %d, or their order differs", label, c.name, len(got), len(want.Rows))
			}
			if !statsEqualIgnoringPipe(m.Stats(), want.Stats) {
				t.Fatalf("%s %s: stats diverge\nstream: %+v\nRun:    %+v", label, c.name, m.Stats(), want.Stats)
			}
		}
	})
}

// chainQuery is a two-way join of relation a (the probe root) with b,
// which evicts and reissues objects through a cache of three.
func chainQuery(cat *catalog.Catalog) *Query {
	return &Query{
		ID:        "chain",
		Relations: []Relation{{Table: cat.MustTable("a")}, {Table: cat.MustTable("b"), Cols: []int{0}}},
		Joins:     []JoinCond{{Rel: 1, LeftCol: "k0", RightCol: "k1"}},
	}
}

// TestStreamCloseFinishesJoin: a consumer that stops after the first chunk
// (a LIMIT, a shaping error) still leaves the source exactly as a full
// drain does — every GET issued, every arrival taken — and the stream's
// statistics are a full run's.
func TestStreamCloseFinishesJoin(t *testing.T) {
	cat, store := lazyDB(t, []relSpec{
		{name: "a", col: "k0", keys: seqKeys(60), perSeg: 10},
		{name: "b", col: "k1", keys: seqKeys(60), perSeg: 10},
	})
	q := chainQuery(cat)
	full, err := Run(q, DefaultConfig(3), &scriptSource{store: store})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Evictions == 0 || full.Stats.Cycles < 2 || len(full.Rows) != 60 {
		t.Fatalf("full run: %d evictions, %d cycles, %d rows; the test needs reissues and output", full.Stats.Evictions, full.Stats.Cycles, len(full.Rows))
	}
	src := &scriptSource{store: store}
	m, err := NewStream(q, DefaultConfig(3), src)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok, err := m.NextBatch(); err != nil || !ok || b.Len() == 0 {
		t.Fatalf("first batch: %v rows, ok=%v, err=%v", b, ok, err)
	}
	if st := m.Stats(); st.Requests >= full.Stats.Requests {
		t.Fatalf("the first batch came after %d of %d requests; the test needs an unfinished run", st.Requests, full.Stats.Requests)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if !statsEqualIgnoringPipe(m.Stats(), full.Stats) {
		t.Fatalf("closed early: %+v\nfull run:     %+v", m.Stats(), full.Stats)
	}
	if len(src.queue) != 0 {
		t.Fatalf("%d arrivals left undelivered", len(src.queue))
	}
	if _, ok, err := m.NextBatch(); ok || err != nil {
		t.Fatalf("NextBatch after Close: ok=%v, err=%v", ok, err)
	}
}

// countingSource counts what is asked of the source it wraps.
type countingSource struct {
	Source
	requests, arrivals int
}

func (s *countingSource) Request(objs []segment.ObjectID) {
	s.requests++
	s.Source.Request(objs)
}

func (s *countingSource) NextArrival() (*segment.Segment, error) {
	s.arrivals++
	return s.Source.NextArrival()
}

// TestStreamSourceErrorEndsRun: a storage failure mid-run comes out of
// NextBatch wrapped as an arrival failure, and from then on the stream asks
// the source for nothing: not a later NextBatch, not Close.
func TestStreamSourceErrorEndsRun(t *testing.T) {
	cat, store := lazyDB(t, []relSpec{
		{name: "a", col: "k0", keys: seqKeys(60), perSeg: 10},
		{name: "b", col: "k1", keys: seqKeys(60), perSeg: 10},
	})
	boom := errors.New("csd: device failed")
	src := &countingSource{Source: &failingSource{scriptSource: scriptSource{store: store}, failAfter: 5, errOut: boom}}
	m, err := NewStream(chainQuery(cat), DefaultConfig(3), src)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := m.NextBatch()
		if err != nil {
			if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "mjoin: arrival: ") {
				t.Fatalf("err = %v; want %q wrapped as an arrival failure", err, boom)
			}
			break
		}
		if !ok {
			t.Fatal("the stream ended without the source's error")
		}
	}
	asked := *src
	if _, _, err := m.NextBatch(); !errors.Is(err, boom) {
		t.Fatalf("NextBatch after the failure: err = %v", err)
	}
	if err := m.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close after the failure: err = %v", err)
	}
	if src.requests != asked.requests || src.arrivals != asked.arrivals || asked.arrivals != 6 {
		t.Fatalf("source asked for %d requests and %d arrivals by the failure, %d and %d after Close; want 6 arrivals, then nothing",
			asked.requests, asked.arrivals, src.requests, src.arrivals)
	}
}

// TestDecodeAfterEvictionReusesVectors: once an entry is evicted, the next
// arrival decodes into the evicted entry's vectors, and indexes into its
// arrays, rather than into fresh ones.
func TestDecodeAfterEvictionReusesVectors(t *testing.T) {
	cat, store := lazyDB(t, []relSpec{
		{name: "a", col: "k0", keys: seqKeys(10), perSeg: 10},
		{name: "b", col: "k1", keys: seqKeys(80), perSeg: 10},
	})
	m, err := NewStream(chainQuery(cat), DefaultConfig(3), &scriptSource{store: store})
	if err != nil {
		t.Fatal(err)
	}
	// held is what an entry's storage is, read while the entry is cached:
	// eviction hands it back to the pool and empties the entry.
	type storage struct {
		cells *int64
		index int
	}
	held := func(e *cacheEntry) storage { return storage{&e.batch.Col(0).I[0], e.index.Cap()} }
	var retired *storage // what the entry the last step evicted held
	reused := 0
	for !m.done {
		before := make(map[int]storage, len(m.cacheOrder))
		for _, o := range m.cacheOrder {
			before[o] = held(&m.slots[o])
		}
		m.step()
		var admitted *cacheEntry
		for _, o := range m.cacheOrder {
			if _, ok := before[o]; !ok {
				admitted = &m.slots[o]
			}
		}
		if admitted != nil && retired != nil {
			got := held(admitted)
			if got.cells != retired.cells {
				t.Fatalf("arrival after an eviction decoded into fresh vectors")
			}
			if got.index != retired.index {
				t.Fatalf("arrival after an eviction indexed into arrays of capacity %d, the evicted entry's hold %d",
					got.index, retired.index)
			}
			reused++
			retired = nil
		}
		for o, st := range before {
			if m.slots[o].batch == nil && !m.done {
				retired = &st
			}
		}
	}
	if reused < 5 {
		t.Fatalf("%d arrivals reused an evicted entry's storage; want one per eviction, at least 5", reused)
	}
}

// allocated returns the bytes one call of fn allocates, averaged over a few
// calls after a warm-up. Each measured call starts from an empty
// working-memory pool — a collection empties it — so what it measures is
// the reuse within one call, not of what earlier calls released.
func allocated(fn func()) float64 {
	const runs = 5
	fn()
	var total uint64
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	return float64(total) / runs
}

// sameSizeChain builds a one-object relation a and a relation b of
// objects same-size objects, lazily decoded. b's keys repeat a's keys
// (0..255) sixteen times per object when match is set, and miss them all
// otherwise.
func sameSizeChain(t *testing.T, objects int, match bool) (*Query, map[segment.ObjectID]*segment.Segment) {
	const perObject = 4096
	bKeys := make([]int64, objects*perObject)
	for i := range bKeys {
		bKeys[i] = int64(i % 256)
		if !match {
			bKeys[i] += 256
		}
	}
	cat, store := lazyDB(t, []relSpec{
		{name: "a", col: "k0", keys: seqKeys(256), perSeg: 256},
		{name: "b", col: "k1", keys: bKeys, perSeg: perObject},
	})
	q := chainQuery(cat)
	q.Relations[0].Cols = []int{0}
	return q, store
}

// TestRunAllocationsBoundedByCache: N versus 4N same-size objects through a
// cache of three, every arrival past the third evicting. Each arrival
// decodes and indexes into what the evicted entries left, so the run
// allocates for its cache and about the same either way, where allocating
// per arrival costs four times as much.
func TestRunAllocationsBoundedByCache(t *testing.T) {
	bytes := func(objects int) float64 {
		q, store := sameSizeChain(t, objects, false)
		return allocated(func() {
			res, err := Run(q, DefaultConfig(3), &scriptSource{store: store})
			if err != nil {
				t.Fatal(err)
			}
			if want := objects - 2; res.Stats.Evictions != want || len(res.Rows) != 0 {
				t.Fatalf("%d objects: %d evictions and %d rows, want %d and none", objects, res.Stats.Evictions, len(res.Rows), want)
			}
		})
	}
	small, large := bytes(6), bytes(24)
	t.Logf("%.0f bytes per run through 6 objects, %.0f through 24 (x%.2f)", small, large, large/small)
	if large > 1.25*small {
		t.Errorf("allocated bytes grew from %.0f to %.0f (x%.2f) with 4x the objects; want within x1.25", small, large, large/small)
	}
}

// TestStreamOutputDoesNotScaleWithResult: draining a result of N versus 4N
// rows allocates about the same for output chunks, because the chunks the
// stream has handed out are released and drawn again. The output bytes are
// what a join whose keys match allocates beyond the same join over keys
// that miss.
func TestStreamOutputDoesNotScaleWithResult(t *testing.T) {
	bytes := func(objects int, match bool) float64 {
		q, store := sameSizeChain(t, objects, match)
		return allocated(func() {
			m, err := NewStream(q, DefaultConfig(3), &scriptSource{store: store})
			if err != nil {
				t.Fatal(err)
			}
			rows := 0
			for {
				b, ok, err := m.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				rows += b.Len()
			}
			want := 0
			if match {
				want = objects * 4096
			}
			if rows != want {
				t.Fatalf("%d objects: %d rows, want %d", objects, rows, want)
			}
		})
	}
	output := func(objects int) float64 { return bytes(objects, true) - bytes(objects, false) }
	small, large := output(6), output(24)
	t.Logf("%.0f output bytes for %d rows, %.0f for %d (x%.2f)", small, 6*4096, large, 24*4096, large/small)
	if large > 1.25*small {
		t.Errorf("output bytes grew from %.0f to %.0f (x%.2f) with 4x the rows; want within x1.25", small, large, large/small)
	}
}

// TestStateManagerStepsDoNotAllocate: on a stream in the middle of a run,
// cache full and subplans pending, the state manager's own steps reuse
// what the run has already allocated — an eviction decision of the
// max-progress policy (its tally of executable subplans included), the
// search for the subplans an admitted arrival makes runnable, and a cycle's
// list of the objects to request.
func TestStateManagerStepsDoNotAllocate(t *testing.T) {
	cat, store := buildDB(t, []relSpec{
		{name: "a", col: "k0", keys: seqKeys(24), perSeg: 4},
		{name: "b", col: "k1", keys: seqKeys(24), perSeg: 6},
		{name: "c", col: "k2", keys: seqKeys(24), perSeg: 4},
	})
	q := &Query{
		ID:        "steps",
		Relations: []Relation{{Table: cat.MustTable("a")}, {Table: cat.MustTable("b")}, {Table: cat.MustTable("c")}},
		Joins:     []JoinCond{{Rel: 1, LeftCol: "k0", RightCol: "k1"}, {Rel: 2, LeftCol: "k1", RightCol: "k2"}},
	}
	m, err := NewStream(q, DefaultConfig(5), &scriptSource{store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for !m.done && (m.stats.SubplansExecuted == 0 || m.stats.Evictions < 3 || m.arrivals == 0) {
		m.step()
	}
	if m.done || len(m.cacheOrder) != m.cfg.CacheSize || m.left == 0 {
		t.Fatalf("no mid-run state: done %v, %d cached, %d pending", m.done, len(m.cacheOrder), m.left)
	}
	cached := make([]segment.ObjectID, 0, len(m.cacheOrder))
	for _, o := range m.cacheOrder {
		cached = append(cached, m.ids[o])
	}
	arriving := -1
	for o := range m.slots {
		if m.slots[o].batch == nil && m.pendingCount[o] > 0 {
			arriving = o
		}
	}
	for _, step := range []struct {
		name string
		fn   func()
	}{
		{"eviction decision", func() {
			m.arriving, m.tallied = arriving, false
			MaxProgress{}.PickVictim(cached, m.ids[arriving], m)
		}},
		// What executeRunnable(arriving) searches once arriving is admitted.
		{"runnable search", func() { m.walk(arriving, -1, false) }},
		{"needed objects", func() { m.neededObjects() }},
	} {
		if n := testing.AllocsPerRun(20, step.fn); n != 0 {
			t.Errorf("%s: %v allocations, want 0", step.name, n)
		}
	}
	if !m.tallied || m.exec[arriving] == 0 || len(m.found) != m.exec[arriving] {
		t.Fatalf("the arriving object makes %d subplans runnable, the decision tallied %d (tallied %v); want as many, and some",
			len(m.found), m.exec[arriving], m.tallied)
	}
}
