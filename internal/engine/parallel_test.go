package engine

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/tuple"
)

// diffDOPs are the degrees of parallelism every differential test runs
// at: serial, minimal pool, and more workers than this machine has cores.
var diffDOPs = []int{1, 2, 8}

// collectAtDOP parallelizes the plan and drains it batch-at-a-time.
func collectAtDOP(t *testing.T, plan Iterator, dop int) []tuple.Row {
	t.Helper()
	rows, err := Collect(Parallelize(plan, dop))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// intFloatTable builds random multi-segment rows whose float column only
// holds integer values: float64 addition over them is exact, so parallel
// SUM/AVG reassociation cannot perturb the result and the comparison
// below can demand bit-identical rows. (Sums of non-representable floats
// differ in the last ulps across DOPs, as in any parallel engine; the
// caveat is documented in docs/tuning.md.)
func intFloatTable(t *testing.T, rng *rand.Rand, name string, n, perSeg int) []*segment.Segment {
	t.Helper()
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{
			tuple.Int(rng.Int63n(50)),
			tuple.Float(float64(rng.Int63n(1000))),
		}
	}
	return segment.Split(0, name, rows, perSeg, 1e9)
}

// TestParallelVsSerialPipelines: the scan→filter→join→agg→sort pipeline
// of the row/batch property suite must produce identical rows (in
// identical order — the Sort pins it) at DOP 1, 2 and 8.
func TestParallelVsSerialPipelines(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		store := make(map[segment.ObjectID]*segment.Segment)
		cat := catalog.New(0)
		fsegs := intFloatTable(t, rng, "f", 600+rng.Intn(500), 100)
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

		mkPlan := func() Iterator {
			scanF := NewFilter(NewSeqScan(ctx, fm), expr.ColGE(fm.Schema, "fk", tuple.Int(5)))
			join := JoinOn(scanF, NewSeqScan(ctx, dm), [][2]string{{"fk", "dk"}})
			agg := NewHashAgg(join,
				[]GroupCol{{Name: "dn", Kind: tuple.KindString, E: expr.Bind(join.Schema(), "dn")}},
				[]AggSpec{
					{Kind: AggCount, Name: "n"},
					{Kind: AggSum, Arg: expr.Bind(join.Schema(), "fv"), Name: "s"},
					{Kind: AggAvg, Arg: expr.Bind(join.Schema(), "fv"), Name: "a"},
					{Kind: AggMin, Arg: expr.Bind(join.Schema(), "fk"), Name: "lo", ArgKind: tuple.KindInt64},
					{Kind: AggMax, Arg: expr.Bind(join.Schema(), "fk"), Name: "hi", ArgKind: tuple.KindInt64},
				})
			return NewSort(agg, []SortKey{{E: expr.NewCol(0, "dn")}})
		}

		want := renderRows(collectAtDOP(t, mkPlan(), 1))
		if len(want) == 0 {
			t.Fatalf("seed %d: serial plan produced no rows; test is vacuous", seed)
		}
		for _, dop := range diffDOPs[1:] {
			got := renderRows(collectAtDOP(t, mkPlan(), dop))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d dop %d: results differ from serial:\n got %v\nwant %v", seed, dop, got, want)
			}
		}
	}
}

// TestParallelJoinMultisetMatchesSerial checks the bare join (no Sort):
// row order may differ across DOPs, the multiset may not. Duplicate keys
// on both sides exercise the multi-match path.
func TestParallelJoinMultisetMatchesSerial(t *testing.T) {
	rows, sch := benchRowsN(5000) // keys repeat mod 97: heavy duplicates
	mkJoin := func() Iterator {
		return JoinOn(NewValues(sch, rows), NewValues(sch, rows), [][2]string{{"k", "k"}})
	}
	want := renderRows(collectAtDOP(t, mkJoin(), 1))
	sort.Strings(want)
	if len(want) == 0 {
		t.Fatal("serial join empty; test is vacuous")
	}
	for _, dop := range diffDOPs[1:] {
		got := renderRows(collectAtDOP(t, mkJoin(), dop))
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("dop %d: join multiset differs from serial (%d vs %d rows)", dop, len(got), len(want))
		}
	}
}

// TestParallelJoinHashCollisionSafety: values engineered to share hashes
// must still be verified by the parallel probe's equality recheck. Int
// and float values with equal bit patterns hash identically but compare
// unequal across kinds.
func TestParallelJoinHashCollisionSafety(t *testing.T) {
	sch := tuple.NewSchema(tuple.Column{Name: "k", Kind: tuple.KindInt64})
	left := []tuple.Row{{tuple.Int(1)}, {tuple.Int(2)}}
	right := []tuple.Row{{tuple.Int(1)}, {tuple.Int(3)}}
	for _, dop := range diffDOPs {
		join := JoinOn(NewValues(sch, left), NewValues(sch, right), [][2]string{{"k", "k"}})
		got := collectAtDOP(t, join, dop)
		if len(got) != 1 || got[0][0].I != 1 {
			t.Fatalf("dop %d: want single k=1 match, got %v", dop, got)
		}
	}
}

// TestParallelAggDeterministicOutput: HashAgg output is sorted by group
// key, so it must be byte-identical (order included) at every DOP, and
// the global-aggregate zero-row case must still emit its single row.
func TestParallelAggDeterministicOutput(t *testing.T) {
	rows, sch := benchRowsN(10000)
	mkAgg := func(in []tuple.Row) Iterator {
		return NewHashAgg(NewValues(sch, in),
			[]GroupCol{{Name: "k", Kind: tuple.KindInt64, E: expr.Bind(sch, "k")}},
			[]AggSpec{
				{Kind: AggCount, Name: "n"},
				{Kind: AggMin, Arg: expr.Bind(sch, "v"), Name: "lo", ArgKind: tuple.KindString},
				{Kind: AggMax, Arg: expr.Bind(sch, "v"), Name: "hi", ArgKind: tuple.KindString},
			})
	}
	want := renderRows(collectAtDOP(t, mkAgg(rows), 1))
	for _, dop := range diffDOPs[1:] {
		got := renderRows(collectAtDOP(t, mkAgg(rows), dop))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("dop %d: agg output differs:\n got %v\nwant %v", dop, got, want)
		}
	}
	// Global aggregate over zero rows: exactly one zero row at any DOP.
	for _, dop := range diffDOPs {
		glob := NewHashAgg(NewValues(sch, nil), nil, []AggSpec{{Kind: AggCount, Name: "n"}})
		got := collectAtDOP(t, glob, dop)
		if len(got) != 1 || got[0][0].I != 0 {
			t.Fatalf("dop %d: zero-row global agg produced %v", dop, got)
		}
	}
}

// TestParallelErrorPropagation: fetch errors must surface through the
// parallel build, probe and aggregation drains just as they do serially.
func TestParallelErrorPropagation(t *testing.T) {
	for _, dop := range diffDOPs {
		// Build side: missing segment on the left.
		lt, lstore := buildTable(t, "l", kvRows(2000), 100)
		delete(lstore, lt.Objects[3])
		rt, rstore := buildTable(t, "r2", kvRows(100), 50)
		for id, sg := range rstore {
			lstore[id] = sg
		}
		ctx := NewTestCtx(lstore)
		join := Parallelize(JoinOn(NewSeqScan(ctx, lt), NewSeqScan(ctx, rt), [][2]string{{"k", "k"}}), dop)
		if err := join.Open(); err == nil {
			join.Close()
			t.Fatalf("dop %d: build-side fetch error not surfaced at Open", dop)
		}

		// Probe side: missing segment on the right, surfaced mid-stream.
		lt2, store2 := buildTable(t, "l2", kvRows(100), 50)
		rt2, rstore2 := buildTable(t, "r3", kvRows(2000), 100)
		for id, sg := range rstore2 {
			store2[id] = sg
		}
		delete(store2, rt2.Objects[5])
		ctx2 := NewTestCtx(store2)
		probe := Parallelize(JoinOn(NewSeqScan(ctx2, lt2), NewSeqScan(ctx2, rt2), [][2]string{{"k", "k"}}), dop)
		if _, err := Collect(probe); err == nil {
			t.Fatalf("dop %d: probe-side fetch error swallowed", dop)
		}

		// Aggregation drain over a broken child.
		at, astore := buildTable(t, "a", kvRows(2000), 100)
		delete(astore, at.Objects[7])
		agg := Parallelize(NewHashAgg(NewSeqScan(NewTestCtx(astore), at), nil,
			[]AggSpec{{Kind: AggCount, Name: "n"}}), dop)
		if _, err := Collect(agg); err == nil {
			t.Fatalf("dop %d: agg drain fetch error swallowed", dop)
		}
	}
}

// TestParallelEmptyInputs: empty build and probe sides terminate cleanly
// at every DOP.
func TestParallelEmptyInputs(t *testing.T) {
	rows, sch := benchRowsN(100)
	for _, dop := range diffDOPs {
		emptyBuild := JoinOn(NewValues(sch, nil), NewValues(sch, rows), [][2]string{{"k", "k"}})
		if got := collectAtDOP(t, emptyBuild, dop); len(got) != 0 {
			t.Fatalf("dop %d: empty build side produced %d rows", dop, len(got))
		}
		emptyProbe := JoinOn(NewValues(sch, rows), NewValues(sch, nil), [][2]string{{"k", "k"}})
		if got := collectAtDOP(t, emptyProbe, dop); len(got) != 0 {
			t.Fatalf("dop %d: empty probe side produced %d rows", dop, len(got))
		}
	}
}

// TestParallelizeWalksPlan: one Parallelize call at the root must reach
// joins and aggregations below other operators, and dop<=1 must normalize
// to the serial path.
func TestParallelizeWalksPlan(t *testing.T) {
	rows, sch := benchRowsN(10)
	join := JoinOn(NewValues(sch, rows), NewValues(sch, rows), [][2]string{{"k", "k"}})
	agg := NewHashAgg(NewFilter(join, expr.ColGE(sch, "k", tuple.Int(0))), nil,
		[]AggSpec{{Kind: AggCount, Name: "n"}})
	root := NewLimit(agg, 1)
	Parallelize(root, 8)
	if agg.dop != 8 || join.dop != 8 {
		t.Fatalf("Parallelize did not reach nested operators: agg=%d join=%d", agg.dop, join.dop)
	}
	Parallelize(root, 0)
	if agg.dop != 1 || join.dop != 1 {
		t.Fatalf("dop 0 should normalize to serial, got agg=%d join=%d", agg.dop, join.dop)
	}
}
