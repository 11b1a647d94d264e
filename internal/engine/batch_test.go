package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/tuple"
)

// oneRowIter re-serves its child's batches one row at a time — the
// degenerate batching of the seed engine's Volcano protocol. No operator
// may depend on where its input's batch boundaries fall.
type oneRowIter struct {
	Iterator
	in  *tuple.Batch
	idx int
	out *tuple.Batch
}

func (r *oneRowIter) Open() error {
	r.in, r.idx = nil, 0
	return r.Iterator.Open()
}

func (r *oneRowIter) NextBatch() (*tuple.Batch, bool, error) {
	for r.in == nil || r.idx >= r.in.Len() {
		b, ok, err := r.Iterator.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		r.in, r.idx = b, 0
	}
	out := sizedOutput(&r.out, r.Schema(), 1)
	out.AppendRange(r.in, r.idx, r.idx+1)
	r.idx++
	return out, true, nil
}

func oneRow(it Iterator) Iterator { return &oneRowIter{Iterator: it} }

// BatchValues is a leaf iterator over batches a test already holds, served
// as they are, without a copy. The batches must stay untouched while the
// plan runs.
type BatchValues struct {
	schema  *tuple.Schema
	batches []*tuple.Batch
	idx     int
	ostats  *OpStats
}

// NewBatchValues builds a constant relation over batches of the given
// schema.
func NewBatchValues(schema *tuple.Schema, batches []*tuple.Batch) *BatchValues {
	return &BatchValues{schema: schema, batches: batches}
}

func (v *BatchValues) Schema() *tuple.Schema { return v.schema }

func (v *BatchValues) Open() error {
	v.idx = 0
	return nil
}

func (v *BatchValues) NextBatch() (*tuple.Batch, bool, error) {
	if v.ostats != nil {
		return timedBatch(v.ostats, v.nextBatch)
	}
	return v.nextBatch()
}

func (v *BatchValues) nextBatch() (*tuple.Batch, bool, error) {
	for v.idx < len(v.batches) {
		b := v.batches[v.idx]
		v.idx++
		if b.Len() > 0 {
			return b, true, nil
		}
	}
	return nil, false, nil
}

func (v *BatchValues) Close() error { return nil }

func (v *BatchValues) children() []Iterator { return nil }
func (v *BatchValues) opStats() **OpStats   { return &v.ostats }

func (v *BatchValues) label() string {
	rows := 0
	for _, b := range v.batches {
		rows += b.Len()
	}
	return fmt.Sprintf("Values (%d rows in %d batches)", rows, len(v.batches))
}

// closeErrIter fails its Close and nothing else.
type closeErrIter struct {
	Iterator
	err error
}

func (c closeErrIter) Close() error { return c.err }

// TestCollectReturnsCloseError: Close can do real work — an MJoin stream
// closed early finishes its join there — so a fault in it must not vanish.
// Collect returns Close's error when the drain succeeded, and the drain's
// own error when it did not.
func TestCollectReturnsCloseError(t *testing.T) {
	rows, sch := benchRowsN(10)
	boom := errors.New("close failed")
	good := closeErrIter{NewBatchValues(sch, []*tuple.Batch{tuple.FromRows(sch, rows)}), boom}
	if got, err := Collect(good); !errors.Is(err, boom) || got != nil {
		t.Fatalf("Collect = %d rows, %v; want no rows and the Close error", len(got), err)
	}
	tm, store := buildTable(t, "t", kvRows(10), 3)
	delete(store, tm.Objects[1])
	bad := closeErrIter{NewSeqScan(NewTestCtx(store), tm), boom}
	if _, err := Collect(bad); err == nil || errors.Is(err, boom) {
		t.Fatalf("Collect = %v; want the drain's fetch error, not the Close error", err)
	}
	if got, err := Collect(NewBatchValues(sch, []*tuple.Batch{tuple.FromRows(sch, rows)})); err != nil || len(got) != 10 {
		t.Fatalf("Collect = %d rows, %v; want 10 rows", len(got), err)
	}
}

// TestBatchValuesServesBatchesAsTheyAre: the batch-backed leaf hands out
// the caller's batches themselves, skips empty ones and starts over on
// re-Open.
func TestBatchValuesServesBatchesAsTheyAre(t *testing.T) {
	rows, sch := benchRowsN(300)
	batches := []*tuple.Batch{
		tuple.FromRows(sch, rows[:100]), tuple.NewBatch(sch, 4), tuple.FromRows(sch, rows[100:]),
	}
	v := NewBatchValues(sch, batches)
	for pass := 0; pass < 2; pass++ {
		got, err := Collect(v)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rows) {
			t.Fatalf("pass %d: batch protocol returned %d rows, want %d", pass, len(got), len(rows))
		}
	}
	if err := v.Open(); err != nil {
		t.Fatal(err)
	}
	if b, ok, _ := v.NextBatch(); !ok || b != batches[0] {
		t.Fatal("first batch served is not the caller's first batch")
	}
	if b, ok, _ := v.NextBatch(); !ok || b != batches[2] {
		t.Fatal("empty batch not skipped")
	}
	if !strings.Contains(Explain(v), "Values (300 rows in 3 batches)") {
		t.Fatalf("explain: %s", Explain(v))
	}
}

func benchRowsN(n int) ([]tuple.Row, *tuple.Schema) {
	sch := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt64},
		tuple.Column{Name: "v", Kind: tuple.KindString},
	)
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{tuple.Int(int64(i % 97)), tuple.Str(fmt.Sprintf("val%d", i%13))}
	}
	return rows, sch
}

// --- error propagation through the batch paths ---

func TestSeqScanNextBatchPropagatesFetchError(t *testing.T) {
	tm, store := buildTable(t, "t", kvRows(10), 3)
	delete(store, tm.Objects[1]) // miss on the second of four segments
	scan := NewSeqScan(NewTestCtx(store), tm)
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	defer scan.Close()
	if _, ok, err := scan.NextBatch(); err != nil || !ok {
		t.Fatalf("first segment should batch cleanly, got ok=%v err=%v", ok, err)
	}
	if _, ok, err := scan.NextBatch(); err == nil || ok {
		t.Fatalf("missing object not reported on batch path (ok=%v err=%v)", ok, err)
	}
}

func TestCollectPropagatesFetchErrorThroughOperators(t *testing.T) {
	tm, store := buildTable(t, "t", kvRows(10), 3)
	delete(store, tm.Objects[2])
	ctx := NewTestCtx(store)
	pred := expr.ColGE(tm.Schema, "k", tuple.Int(0))
	plans := map[string]Iterator{
		"filter":   NewFilter(NewSeqScan(ctx, tm), pred),
		"project":  NewProject(NewSeqScan(ctx, tm), []ProjectCol{{Name: "k", Kind: tuple.KindInt64, E: expr.Bind(tm.Schema, "k")}}),
		"sort":     NewSort(NewSeqScan(ctx, tm), []SortKey{{E: expr.Bind(tm.Schema, "k")}}),
		"agg":      NewHashAgg(NewSeqScan(ctx, tm), nil, []AggSpec{{Kind: AggCount, Name: "n"}}),
		"distinct": NewDistinct(NewSeqScan(ctx, tm)),
		"join":     JoinOn(NewSeqScan(ctx, tm), NewSeqScan(ctx, tm), [][2]string{{"k", "k"}}),
	}
	for name, it := range plans {
		if _, err := Collect(it); err == nil {
			t.Fatalf("%s: fetch error swallowed", name)
		}
	}
}

func TestHashJoinBuildSideFetchError(t *testing.T) {
	lt, lstore := buildTable(t, "l", kvRows(6), 2)
	delete(lstore, lt.Objects[0])
	rt, rstore := buildTable(t, "r2", kvRows(6), 2)
	for id, sg := range rstore {
		lstore[id] = sg
	}
	ctx := NewTestCtx(lstore)
	join := JoinOn(NewSeqScan(ctx, lt), NewSeqScan(ctx, rt), [][2]string{{"k", "k"}})
	if err := join.Open(); err == nil {
		join.Close()
		t.Fatal("build-side fetch error not surfaced at Open")
	}
}

// --- differential property test: one-row edges vs end-to-end batches ---

// randTable builds the segments of a random multi-segment table.
func randTable(t *testing.T, rng *rand.Rand, name string, cols []tuple.Column, n, perSeg int) []*segment.Segment {
	t.Helper()
	rows := make([]tuple.Row, n)
	for i := range rows {
		row := make(tuple.Row, len(cols))
		for c, col := range cols {
			switch col.Kind {
			case tuple.KindInt64:
				row[c] = tuple.Int(rng.Int63n(50))
			case tuple.KindFloat64:
				row[c] = tuple.Float(float64(rng.Int63n(1000)) / 10)
			default:
				row[c] = tuple.Str(fmt.Sprintf("s%d", rng.Intn(20)))
			}
		}
		rows[i] = row
	}
	return segment.Split(0, name, rows, perSeg, 1e9)
}

// TestBatchVsRowPropertyPipelines: for several random datasets, a
// scan→filter→join→agg→sort pipeline run with every edge severed to
// one row per batch must match the same pipeline run on full batches.
func TestBatchVsRowPropertyPipelines(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := make(map[segment.ObjectID]*segment.Segment)
		cat := catalog.New(0)
		fsegs := randTable(t, rng, "f", []tuple.Column{
			{Name: "fk", Kind: tuple.KindInt64},
			{Name: "fv", Kind: tuple.KindFloat64},
		}, 600+rng.Intn(500), 100)
		dsegs := randTable(t, rng, "d", []tuple.Column{
			{Name: "dk", Kind: tuple.KindInt64},
			{Name: "dn", Kind: tuple.KindString},
		}, 80, 30)
		for _, sg := range fsegs {
			store[sg.ID] = sg
		}
		for _, sg := range dsegs {
			store[sg.ID] = sg
		}
		fm := cat.MustAddTable("f", tuple.NewSchema(
			tuple.Column{Name: "fk", Kind: tuple.KindInt64},
			tuple.Column{Name: "fv", Kind: tuple.KindFloat64}), fsegs)
		dm := cat.MustAddTable("d", tuple.NewSchema(
			tuple.Column{Name: "dk", Kind: tuple.KindInt64},
			tuple.Column{Name: "dn", Kind: tuple.KindString}), dsegs)
		ctx := NewTestCtx(store)

		mkPlan := func(edge func(Iterator) Iterator) Iterator {
			scanF := NewFilter(edge(NewSeqScan(ctx, fm)), expr.ColGE(fm.Schema, "fk", tuple.Int(5)))
			join := JoinOn(edge(scanF), edge(NewSeqScan(ctx, dm)), [][2]string{{"fk", "dk"}})
			agg := NewHashAgg(edge(join),
				[]GroupCol{{Name: "dn", Kind: tuple.KindString, E: expr.Bind(join.Schema(), "dn")}},
				[]AggSpec{
					{Kind: AggCount, Name: "n"},
					{Kind: AggSum, Arg: expr.Bind(join.Schema(), "fv"), Name: "s"},
					{Kind: AggMin, Arg: expr.Bind(join.Schema(), "fk"), Name: "lo", ArgKind: tuple.KindInt64},
				})
			return NewSort(edge(agg), []SortKey{{E: expr.NewCol(0, "dn")}})
		}

		rowRes, err := Collect(oneRow(mkPlan(oneRow)))
		if err != nil {
			t.Fatal(err)
		}
		batchRes, err := Collect(mkPlan(func(it Iterator) Iterator { return it }))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(renderRows(rowRes), renderRows(batchRes)) {
			t.Fatalf("seed %d: row pipeline and batch pipeline disagree:\n%v\n%v",
				seed, renderRows(rowRes), renderRows(batchRes))
		}
		// The pipelines must also agree under unordered comparison with a
		// distinct+limit tail, exercising the remaining operators.
		mkTail := func(edge func(Iterator) Iterator) Iterator {
			scanF := NewFilter(edge(NewSeqScan(ctx, fm)), expr.ColGE(fm.Schema, "fk", tuple.Int(10)))
			proj := NewProject(edge(scanF), []ProjectCol{{Name: "fk", Kind: tuple.KindInt64, E: expr.Bind(fm.Schema, "fk")}})
			return NewLimit(edge(NewDistinct(edge(proj))), 25)
		}
		rowTail, err := Collect(oneRow(mkTail(oneRow)))
		if err != nil {
			t.Fatal(err)
		}
		batchTail, err := Collect(mkTail(func(it Iterator) Iterator { return it }))
		if err != nil {
			t.Fatal(err)
		}
		rt, bt := renderRows(rowTail), renderRows(batchTail)
		sort.Strings(rt)
		sort.Strings(bt)
		if !reflect.DeepEqual(rt, bt) {
			t.Fatalf("seed %d: distinct/limit tails disagree:\n%v\n%v", seed, rt, bt)
		}
	}
}

func renderRows(rows []tuple.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}
