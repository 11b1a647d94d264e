package engine

import (
	"fmt"
	"math"
	"reflect"
	"runtime/debug"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/tuple"
)

// buildTable registers n rows of (k, v) pairs split into segments and
// returns the catalog plus backing store.
func buildTable(t *testing.T, name string, rows []tuple.Row, perSeg int) (*catalog.TableMeta, map[segment.ObjectID]*segment.Segment) {
	t.Helper()
	sch := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt64},
		tuple.Column{Name: "v", Kind: tuple.KindString},
	)
	segs := segment.Split(0, name, rows, perSeg, 1e9)
	store := make(map[segment.ObjectID]*segment.Segment)
	for _, sg := range segs {
		store[sg.ID] = sg
	}
	cat := catalog.New(0)
	tm := cat.MustAddTable(name, sch, segs)
	return tm, store
}

func kvRows(n int) []tuple.Row {
	out := make([]tuple.Row, n)
	for i := range out {
		out[i] = tuple.Row{tuple.Int(int64(i)), tuple.Str(fmt.Sprintf("v%d", i))}
	}
	return out
}

func TestSeqScanAllRows(t *testing.T) {
	tm, store := buildTable(t, "t", kvRows(10), 3)
	rows, err := Collect(NewSeqScan(NewTestCtx(store), tm))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r[0].AsInt() != int64(i) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
}

func TestFilter(t *testing.T) {
	tm, store := buildTable(t, "t", kvRows(10), 4)
	ctx := NewTestCtx(store)
	scan := NewSeqScan(ctx, tm)
	pred := expr.ColGE(tm.Schema, "k", tuple.Int(7))
	rows, err := Collect(NewFilter(scan, pred))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
}

func TestProject(t *testing.T) {
	tm, store := buildTable(t, "t", kvRows(3), 10)
	scan := NewSeqScan(NewTestCtx(store), tm)
	proj := NewProject(scan, []ProjectCol{
		{Name: "k2", Kind: tuple.KindInt64, E: expr.Arith{Op: expr.Mul, L: expr.Bind(tm.Schema, "k"), R: expr.Lit(tuple.Int(2))}},
	})
	rows, err := Collect(proj)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 2, 4}
	for i, r := range rows {
		if r[0].AsInt() != want[i] {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	if proj.Schema().Cols[0].Name != "k2" {
		t.Fatalf("schema %v", proj.Schema())
	}
}

func TestProjectKindMismatch(t *testing.T) {
	tm, store := buildTable(t, "t", kvRows(1), 10)
	scan := NewSeqScan(NewTestCtx(store), tm)
	proj := NewProject(scan, []ProjectCol{
		{Name: "bad", Kind: tuple.KindString, E: expr.Bind(tm.Schema, "k")},
	})
	if _, err := Collect(proj); err == nil {
		t.Fatal("kind mismatch not detected")
	}
}

func TestLimit(t *testing.T) {
	tm, store := buildTable(t, "t", kvRows(10), 4)
	rows, err := Collect(NewLimit(NewSeqScan(NewTestCtx(store), tm), 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
}

func TestHashJoinInner(t *testing.T) {
	// left: (k, v) k=0..9; right: (k, v) k=5..14 -> matches 5..9.
	lt, lstore := buildTable(t, "l", kvRows(10), 3)
	var rrows []tuple.Row
	for i := 5; i < 15; i++ {
		rrows = append(rrows, tuple.Row{tuple.Int(int64(i)), tuple.Str("r")})
	}
	rsch := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt64},
		tuple.Column{Name: "v", Kind: tuple.KindString},
	)
	rsegs := segment.Split(0, "r", rrows, 4, 1e9)
	store := lstore
	for _, sg := range rsegs {
		store[sg.ID] = sg
	}
	rcat := catalog.New(0)
	rt := rcat.MustAddTable("r", rsch, rsegs)

	ctx := NewTestCtx(store)
	join := JoinOn(NewSeqScan(ctx, lt), NewSeqScan(ctx, rt), [][2]string{{"k", "k"}})
	rows, err := Collect(join)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Join output schema: k, v, right.k, v -> disambiguated.
	names := join.Schema().ColumnNames()
	if !reflect.DeepEqual(names, []string{"k", "v", "right.k", "right.v"}) {
		t.Fatalf("join schema %v", names)
	}
	var keys []int
	for _, r := range rows {
		if r[0].AsInt() != r[2].AsInt() {
			t.Fatalf("join mismatch %v", r)
		}
		keys = append(keys, int(r[0].AsInt()))
	}
	sort.Ints(keys)
	if !reflect.DeepEqual(keys, []int{5, 6, 7, 8, 9}) {
		t.Fatalf("keys %v", keys)
	}
}

func TestHashJoinDuplicates(t *testing.T) {
	sch := tuple.NewSchema(tuple.Column{Name: "k", Kind: tuple.KindInt64})
	l := NewValues(sch, []tuple.Row{{tuple.Int(1)}, {tuple.Int(1)}, {tuple.Int(2)}})
	r := NewValues(sch, []tuple.Row{{tuple.Int(1)}, {tuple.Int(1)}, {tuple.Int(3)}})
	rows, err := Collect(JoinOn(l, r, [][2]string{{"k", "k"}}))
	if err != nil {
		t.Fatal(err)
	}
	// 2 left ones x 2 right ones = 4 result rows.
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
}

func TestHashJoinHashCollisionSafety(t *testing.T) {
	// Different keys that could collide in the hash must not join.
	sch := tuple.NewSchema(tuple.Column{Name: "k", Kind: tuple.KindInt64})
	var lrows, rrows []tuple.Row
	for i := 0; i < 1000; i++ {
		lrows = append(lrows, tuple.Row{tuple.Int(int64(i))})
		rrows = append(rrows, tuple.Row{tuple.Int(int64(i + 500))})
	}
	rows, err := Collect(JoinOn(NewValues(sch, lrows), NewValues(sch, rrows), [][2]string{{"k", "k"}}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 500 {
		t.Fatalf("got %d rows, want 500", len(rows))
	}
}

// TestBuildJoinTreeThreeWay: a left-deep tree of two joins, where the inner
// join's output batches — reused between NextBatch calls, cut wherever its
// output fills — become the outer join's chunked build side.
func TestBuildJoinTreeThreeWay(t *testing.T) {
	a := tuple.NewSchema(tuple.Column{Name: "x", Kind: tuple.KindInt64})
	b := tuple.NewSchema(tuple.Column{Name: "y", Kind: tuple.KindInt64})
	c := tuple.NewSchema(tuple.Column{Name: "z", Kind: tuple.KindInt64})
	mk := func(s *tuple.Schema, vals ...int64) Iterator {
		rows := make([]tuple.Row, len(vals))
		for i, v := range vals {
			rows[i] = tuple.Row{tuple.Int(v)}
		}
		return NewValues(s, rows)
	}
	tree := JoinOn(JoinOn(mk(a, 1, 2, 3), mk(b, 2, 3, 4), [][2]string{{"x", "y"}}), mk(c, 3, 4, 5), [][2]string{{"y", "z"}})
	rows, err := Collect(tree)
	if err != nil {
		t.Fatal(err)
	}
	// x=y: (2,2),(3,3); then y=z: z has 3,4,5, so only (3,3,3).
	if len(rows) != 1 || rows[0].String() != "(3, 3, 3)" {
		t.Fatalf("rows %v", rows)
	}

	// Wide enough that the inner join emits many output batches: x, y in
	// 0..2999, each y twice; z every third value. Row i of the result is
	// (x, y, z) = (3⌊i/2⌋, 3⌊i/2⌋, 3⌊i/2⌋), probe order then build order.
	var xs, ys, zs []int64
	for v := int64(0); v < 3000; v++ {
		xs, ys = append(xs, v), append(ys, v, v)
		if v%3 == 0 {
			zs = append(zs, v)
		}
	}
	tree = JoinOn(JoinOn(mk(a, xs...), mk(b, ys...), [][2]string{{"x", "y"}}), mk(c, zs...), [][2]string{{"y", "z"}})
	rows, err = Collect(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(zs) {
		t.Fatalf("%d rows, want %d", len(rows), 2*len(zs))
	}
	for i, r := range rows {
		v := 3 * int64(i/2)
		if r[0].AsInt() != v || r[1].AsInt() != v || r[2].AsInt() != v {
			t.Fatalf("row %d = %v, want (%d, %d, %d)", i, r, v, v, v)
		}
	}
}

func TestHashAggGlobal(t *testing.T) {
	sch := tuple.NewSchema(tuple.Column{Name: "x", Kind: tuple.KindInt64})
	in := NewValues(sch, []tuple.Row{{tuple.Int(1)}, {tuple.Int(2)}, {tuple.Int(3)}})
	agg := NewHashAgg(in, nil, []AggSpec{
		{Kind: AggCount, Name: "n"},
		{Kind: AggSum, Arg: expr.Bind(sch, "x"), Name: "s"},
		{Kind: AggAvg, Arg: expr.Bind(sch, "x"), Name: "a"},
	})
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0][0].AsInt() != 3 || rows[0][1].AsFloat() != 6 || rows[0][2].AsFloat() != 2 {
		t.Fatalf("agg row %v", rows[0])
	}
}

func TestHashAggEmptyInputGlobal(t *testing.T) {
	sch := tuple.NewSchema(tuple.Column{Name: "x", Kind: tuple.KindInt64})
	agg := NewHashAgg(NewValues(sch, nil), nil, []AggSpec{{Kind: AggCount, Name: "n"}})
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].AsInt() != 0 {
		t.Fatalf("agg over empty: %v", rows)
	}
}

func TestHashAggGrouped(t *testing.T) {
	sch := tuple.NewSchema(
		tuple.Column{Name: "g", Kind: tuple.KindString},
		tuple.Column{Name: "x", Kind: tuple.KindInt64},
	)
	in := NewValues(sch, []tuple.Row{
		{tuple.Str("b"), tuple.Int(10)},
		{tuple.Str("a"), tuple.Int(1)},
		{tuple.Str("b"), tuple.Int(20)},
		{tuple.Str("a"), tuple.Int(2)},
	})
	agg := NewHashAgg(in,
		[]GroupCol{{Name: "g", Kind: tuple.KindString, E: expr.Bind(sch, "g")}},
		[]AggSpec{
			{Kind: AggCount, Name: "n"},
			{Kind: AggSum, Arg: expr.Bind(sch, "x"), Name: "s"},
			{Kind: AggMin, Arg: expr.Bind(sch, "x"), Name: "lo"},
			{Kind: AggMax, Arg: expr.Bind(sch, "x"), Name: "hi"},
		})
	rows, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d groups", len(rows))
	}
	// Deterministic order: sorted by key => "a" first.
	if rows[0][0].AsString() != "a" || rows[0][1].AsInt() != 2 || rows[0][2].AsFloat() != 3 {
		t.Fatalf("group a: %v", rows[0])
	}
	if rows[1][0].AsString() != "b" || rows[1][3].AsInt() != 10 || rows[1][4].AsInt() != 20 {
		t.Fatalf("group b: %v", rows[1])
	}
}

func TestSortAscDesc(t *testing.T) {
	sch := tuple.NewSchema(
		tuple.Column{Name: "a", Kind: tuple.KindInt64},
		tuple.Column{Name: "b", Kind: tuple.KindInt64},
	)
	in := NewValues(sch, []tuple.Row{
		{tuple.Int(1), tuple.Int(9)},
		{tuple.Int(2), tuple.Int(5)},
		{tuple.Int(1), tuple.Int(3)},
	})
	srt := NewSort(in, []SortKey{
		{E: expr.Bind(sch, "a")},
		{E: expr.Bind(sch, "b"), Desc: true},
	})
	rows, err := Collect(srt)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 9}, {1, 3}, {2, 5}}
	for i, w := range want {
		if rows[i][0].AsInt() != w[0] || rows[i][1].AsInt() != w[1] {
			t.Fatalf("row %d = %v, want %v", i, rows[i], w)
		}
	}
}

func TestSortStability(t *testing.T) {
	sch := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt64},
		tuple.Column{Name: "seq", Kind: tuple.KindInt64},
	)
	var in []tuple.Row
	for i := 0; i < 10; i++ {
		in = append(in, tuple.Row{tuple.Int(int64(i % 2)), tuple.Int(int64(i))})
	}
	rows, err := Collect(NewSort(NewValues(sch, in), []SortKey{{E: expr.Bind(sch, "k")}}))
	if err != nil {
		t.Fatal(err)
	}
	var last int64 = -1
	for _, r := range rows[:5] { // k=0 block preserves seq order
		if r[1].AsInt() < last {
			t.Fatalf("unstable sort: %v", rows)
		}
		last = r[1].AsInt()
	}
}

// NewDistinct wraps child with duplicate elimination, as a compiled
// Shape's Distinct stage does.
func NewDistinct(child Iterator) *Distinct { return newDistinct(child, child.Schema()) }

func TestDistinct(t *testing.T) {
	sch := tuple.NewSchema(
		tuple.Column{Name: "a", Kind: tuple.KindInt64},
		tuple.Column{Name: "b", Kind: tuple.KindString},
	)
	in := NewValues(sch, []tuple.Row{
		{tuple.Int(1), tuple.Str("x")},
		{tuple.Int(1), tuple.Str("x")},
		{tuple.Int(1), tuple.Str("y")},
		{tuple.Int(2), tuple.Str("x")},
		{tuple.Int(1), tuple.Str("x")},
	})
	rows, err := Collect(NewDistinct(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("distinct rows = %d, want 3", len(rows))
	}
	// First occurrence order preserved.
	if rows[0][1].AsString() != "x" || rows[1][1].AsString() != "y" || rows[2][0].AsInt() != 2 {
		t.Fatalf("order %v", rows)
	}
}

// TestDistinctKeysByValue: Distinct finds duplicates the way HashAgg finds
// groups, by value. Two rows whose strings would render to one key once
// the kind bytes and NUL separators are spelled into the values stay two
// rows, and 0.0 and -0.0, which print differently, are one.
func TestDistinctKeysByValue(t *testing.T) {
	k := string(rune(tuple.KindString))
	strs := tuple.NewSchema(
		tuple.Column{Name: "a", Kind: tuple.KindString},
		tuple.Column{Name: "b", Kind: tuple.KindString},
	)
	rows, err := Collect(NewDistinct(NewValues(strs, []tuple.Row{
		{tuple.Str("x\x00" + k + "y"), tuple.Str("z")},
		{tuple.Str("x"), tuple.Str("y\x00" + k + "z")},
	})))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows with separators in their strings: got %v, want both", rows)
	}

	floats := tuple.NewSchema(tuple.Column{Name: "f", Kind: tuple.KindFloat64})
	rows, err = Collect(NewDistinct(NewValues(floats, []tuple.Row{
		{tuple.Float(0)}, {tuple.Float(math.Copysign(0, -1))}, {tuple.Float(1)},
	})))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].String() != "(0)" || rows[1].String() != "(1)" {
		t.Fatalf("0, -0, 1: got %v, want (0) (1)", rows)
	}
}

// TestDistinctKeyCollisionSafety: rows that hold the same values in other
// columns are other rows. (1, 2) and (2, 1) stay two rows, and so do
// (int 1, date 0) and (int 0, date 1), whose int and date cells hash
// alike; an exact repeat of either collapses.
func TestDistinctKeyCollisionSafety(t *testing.T) {
	for _, tc := range []struct {
		name string
		sch  *tuple.Schema
		in   []tuple.Row
		want []string
	}{
		{"values swap columns",
			tuple.NewSchema(tuple.Column{Name: "a", Kind: tuple.KindInt64}, tuple.Column{Name: "b", Kind: tuple.KindInt64}),
			[]tuple.Row{{tuple.Int(1), tuple.Int(2)}, {tuple.Int(2), tuple.Int(1)}, {tuple.Int(1), tuple.Int(2)}},
			[]string{"(1, 2)", "(2, 1)"}},
		{"int and date swap columns",
			tuple.NewSchema(tuple.Column{Name: "i", Kind: tuple.KindInt64}, tuple.Column{Name: "d", Kind: tuple.KindDate}),
			[]tuple.Row{{tuple.Int(1), tuple.DateFromDays(0)}, {tuple.Int(0), tuple.DateFromDays(1)}, {tuple.Int(0), tuple.DateFromDays(1)}},
			[]string{"(1, 1970-01-01)", "(0, 1970-01-02)"}},
	} {
		rows, err := Collect(NewDistinct(NewValues(tc.sch, tc.in)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var got []string
		for _, r := range rows {
			got = append(got, r.String())
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestCollectPropagatesFetchError(t *testing.T) {
	tm, store := buildTable(t, "t", kvRows(5), 2)
	// Remove one backing object to break the fetch.
	delete(store, tm.Objects[1])
	if _, err := Collect(NewSeqScan(NewTestCtx(store), tm)); err == nil {
		t.Fatal("missing object not reported")
	}
}

// TestHashAggSeparatorsInGroupValues: two groups whose values differ but
// whose rendered order keys coincide — a string may contain the NUL and
// the "kind|" the key is built from — are two groups, not one. They tie in
// the output order, and ties keep the order the groups were first seen in.
func TestHashAggSeparatorsInGroupValues(t *testing.T) {
	sch := tuple.NewSchema(
		tuple.Column{Name: "g", Kind: tuple.KindString},
		tuple.Column{Name: "h", Kind: tuple.KindString},
		tuple.Column{Name: "x", Kind: tuple.KindInt64},
	)
	split := tuple.Row{tuple.Str("x"), tuple.Str("y\x002|z"), tuple.Int(1)}
	fused := tuple.Row{tuple.Str("x\x002|y"), tuple.Str("z"), tuple.Int(10)}
	splitOut, fusedOut := `"x" "y\x002|z" 2`, `"x\x002|y" "z" 10`
	for _, tc := range []struct {
		in   []tuple.Row
		want []string
	}{
		{[]tuple.Row{split, fused, split}, []string{splitOut, fusedOut}},
		{[]tuple.Row{fused, split, split}, []string{fusedOut, splitOut}},
	} {
		agg := NewHashAgg(NewValues(sch, tc.in),
			[]GroupCol{
				{Name: "g", Kind: tuple.KindString, E: expr.Bind(sch, "g")},
				{Name: "h", Kind: tuple.KindString, E: expr.Bind(sch, "h")},
			},
			[]AggSpec{{Kind: AggSum, Arg: expr.Bind(sch, "x"), Name: "s"}})
		rows, err := Collect(agg)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range rows {
			got = append(got, fmt.Sprintf("%q %q %v", r[0].S, r[1].S, r[2].F))
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("groups:\n got %v\nwant %v", got, tc.want)
		}
	}
}

// TestHashAggOutputOrder pins the order HashAgg has always emitted groups
// in: by the text "kind|display" of the group values, so int 10 sorts
// before int 9 and a date sorts by its rendering, whatever the kind. A Sort
// on top orders by value as usual. (A batch column holds cells of one kind,
// so one group column cannot mix kinds any more.)
func TestHashAggOutputOrder(t *testing.T) {
	sch := tuple.NewSchema(tuple.Column{Name: "g", Kind: tuple.KindInt64})
	group := []GroupCol{{Name: "g", Kind: tuple.KindInt64, E: expr.Bind(sch, "g")}}
	count := []AggSpec{{Kind: AggCount, Name: "n"}}
	render := func(it Iterator) []string {
		t.Helper()
		rows, err := Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprintf("%v:%s x%d", r[0].K, r[0], r[1].AsInt())
		}
		return out
	}

	for _, tc := range []struct {
		kind tuple.Kind
		in   []tuple.Value
		want []string
	}{
		{tuple.KindString, []tuple.Value{tuple.Str("9"), tuple.Str("10"), tuple.Str("9")}, []string{"string:10 x1", "string:9 x2"}},
		{tuple.KindFloat64, []tuple.Value{tuple.Float(2.5), tuple.Float(10), tuple.Float(-1)}, []string{"float64:-1 x1", "float64:10 x1", "float64:2.5 x1"}},
		{tuple.KindDate, []tuple.Value{tuple.DateFromDays(400), tuple.DateFromDays(3), tuple.DateFromDays(3)}, []string{"date:1970-01-04 x2", "date:1971-02-05 x1"}},
	} {
		ksch := tuple.NewSchema(tuple.Column{Name: "g", Kind: tc.kind})
		var in []tuple.Row
		for _, v := range tc.in {
			in = append(in, tuple.Row{v})
		}
		got := render(NewHashAgg(NewValues(ksch, in), []GroupCol{{Name: "g", Kind: tc.kind, E: expr.Bind(ksch, "g")}}, count))
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%v groups:\n got %v\nwant %v", tc.kind, got, tc.want)
		}
	}

	ints := []tuple.Row{{tuple.Int(9)}, {tuple.Int(10)}, {tuple.Int(3)}, {tuple.Int(10)}}
	got := render(NewHashAgg(NewValues(sch, ints), group, count))
	if want := []string{"int64:10 x2", "int64:3 x1", "int64:9 x1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ints, no Sort:\n got %v\nwant %v", got, want)
	}
	agg := NewHashAgg(NewValues(sch, ints), group, count)
	got = render(NewSort(agg, []SortKey{{E: expr.Bind(agg.Schema(), "g")}}))
	if want := []string{"int64:3 x1", "int64:9 x1", "int64:10 x2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ints under Sort:\n got %v\nwant %v", got, want)
	}
}

// TestHashAggAllocationsDoNotScaleWithRows: folding allocates per group,
// not per row — four times the input rows over the same groups must cost
// about the same number of allocations.
func TestHashAggAllocationsDoNotScaleWithRows(t *testing.T) {
	sch := tuple.NewSchema(
		tuple.Column{Name: "g", Kind: tuple.KindString},
		tuple.Column{Name: "k", Kind: tuple.KindInt64},
		tuple.Column{Name: "x", Kind: tuple.KindFloat64},
	)
	allocs := func(n int) float64 {
		rows := make([]tuple.Row, n)
		for i := range rows {
			rows[i] = tuple.Row{tuple.Str(fmt.Sprintf("g%d", i%7)), tuple.Int(int64(i % 5)), tuple.Float(float64(i))}
		}
		in := NewValues(sch, rows)
		return testing.AllocsPerRun(5, func() {
			agg := NewHashAgg(in,
				[]GroupCol{
					{Name: "g", Kind: tuple.KindString, E: expr.Bind(sch, "g")},
					{Name: "k", Kind: tuple.KindInt64, E: expr.Bind(sch, "k")},
				},
				[]AggSpec{{Kind: AggCount, Name: "n"}, {Kind: AggSum, Arg: expr.Bind(sch, "x"), Name: "s"}})
			out, err := Collect(agg)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 35 {
				t.Fatalf("%d groups, want 35", len(out))
			}
		})
	}
	small, large := allocs(2000), allocs(8000)
	t.Logf("%.0f allocations over 2000 rows, %.0f over 8000", small, large)
	if large > 1.25*small {
		t.Errorf("allocations grew from %.0f to %.0f (x%.2f) with 4x the rows; want within x1.25", small, large, large/small)
	}
}

// TestHashAggAllocationsDoNotScaleWithGroups: group state is typed columns
// that grow by doubling from the working-memory pool, not an object per
// group — ten times the groups over the same rows must cost about the same
// number of allocations.
func TestHashAggAllocationsDoNotScaleWithGroups(t *testing.T) {
	sch := tuple.NewSchema(
		tuple.Column{Name: "g", Kind: tuple.KindString},
		tuple.Column{Name: "k", Kind: tuple.KindInt64},
		tuple.Column{Name: "x", Kind: tuple.KindFloat64},
	)
	allocs := func(groups int) float64 {
		rows := make([]tuple.Row, 7000)
		for i := range rows {
			rows[i] = tuple.Row{tuple.Str(fmt.Sprintf("g%d", i%7)), tuple.Int(int64(i % (groups / 7))), tuple.Float(float64(i))}
		}
		in := NewValues(sch, rows)
		return testing.AllocsPerRun(5, func() {
			agg := NewHashAgg(in,
				[]GroupCol{
					{Name: "g", Kind: tuple.KindString, E: expr.Bind(sch, "g")},
					{Name: "k", Kind: tuple.KindInt64, E: expr.Bind(sch, "k")},
				},
				[]AggSpec{{Kind: AggCount, Name: "n"}, {Kind: AggSum, Arg: expr.Bind(sch, "x"), Name: "s"},
					{Kind: AggMax, Arg: expr.Bind(sch, "g"), ArgKind: tuple.KindString, Name: "m"}})
			out, err := Collect(agg)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != groups {
				t.Fatalf("%d groups, want %d", len(out), groups)
			}
		})
	}
	small, large := allocs(35), allocs(350)
	t.Logf("%.0f allocations over 35 groups, %.0f over 350", small, large)
	if large > 1.25*small {
		t.Errorf("allocations grew from %.0f to %.0f (x%.2f) with 10x the groups; want within x1.25", small, large, large/small)
	}
}

// TestSortAllocationsDoNotScaleWithRows: Sort keeps its input in typed
// columns from the working-memory pool and sorts a permutation, not a row
// per input row — four times the rows must cost about the same number of
// allocations, over a bare-column key and an evaluated one. The collector
// is off while it counts: a collection empties the pool, and the larger
// input, which triggers more of them (many more under -race), would count
// the pool refilling.
func TestSortAllocationsDoNotScaleWithRows(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sch := tuple.NewSchema(
		tuple.Column{Name: "s", Kind: tuple.KindString},
		tuple.Column{Name: "k", Kind: tuple.KindInt64},
		tuple.Column{Name: "x", Kind: tuple.KindFloat64},
	)
	keys := []SortKey{
		{E: expr.Bind(sch, "s")},
		{E: expr.Arith{Op: expr.Mul, L: expr.Bind(sch, "x"), R: expr.Lit(tuple.Float(-1))}, Desc: true},
	}
	allocs := func(n int) float64 {
		rows := make([]tuple.Row, n)
		for i := range rows {
			rows[i] = tuple.Row{tuple.Str(fmt.Sprintf("s%d", i%11)), tuple.Int(int64(i)), tuple.Float(float64(i % 13))}
		}
		in := NewValues(sch, rows)
		return testing.AllocsPerRun(5, func() {
			srt := NewSort(in, keys)
			if err := srt.Open(); err != nil {
				t.Fatal(err)
			}
			got := 0
			for {
				b, ok, err := srt.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				got += b.Len()
			}
			if err := srt.Close(); err != nil || got != n {
				t.Fatalf("%d rows (err %v), want %d", got, err, n)
			}
		})
	}
	small, large := allocs(2000), allocs(8000)
	t.Logf("%.0f allocations over 2000 rows, %.0f over 8000", small, large)
	if large > 1.25*small {
		t.Errorf("allocations grew from %.0f to %.0f (x%.2f) with 4x the rows; want within x1.25", small, large, large/small)
	}
}

// The three tests below are named for the degree-of-parallelism matrix
// they once ran in; what they check is serial behaviour nothing else
// covers as directly.

// TestParallelErrorPropagation: a fetch error surfaces from a join's build
// side at Open, from its probe side mid-stream, and from an aggregation's
// drain.
func TestParallelErrorPropagation(t *testing.T) {
	lt, lstore := buildTable(t, "l", kvRows(2000), 100)
	delete(lstore, lt.Objects[3])
	rt, rstore := buildTable(t, "r2", kvRows(100), 50)
	for id, sg := range rstore {
		lstore[id] = sg
	}
	ctx := NewTestCtx(lstore)
	join := JoinOn(NewSeqScan(ctx, lt), NewSeqScan(ctx, rt), [][2]string{{"k", "k"}})
	if err := join.Open(); err == nil {
		join.Close()
		t.Fatal("build-side fetch error not surfaced at Open")
	}

	lt2, store2 := buildTable(t, "l2", kvRows(100), 50)
	rt2, rstore2 := buildTable(t, "r3", kvRows(2000), 100)
	for id, sg := range rstore2 {
		store2[id] = sg
	}
	delete(store2, rt2.Objects[5])
	ctx2 := NewTestCtx(store2)
	if _, err := Collect(JoinOn(NewSeqScan(ctx2, lt2), NewSeqScan(ctx2, rt2), [][2]string{{"k", "k"}})); err == nil {
		t.Fatal("probe-side fetch error swallowed")
	}

	at, astore := buildTable(t, "a", kvRows(2000), 100)
	delete(astore, at.Objects[7])
	agg := NewHashAgg(NewSeqScan(NewTestCtx(astore), at), nil, []AggSpec{{Kind: AggCount, Name: "n"}})
	if _, err := Collect(agg); err == nil {
		t.Fatal("agg drain fetch error swallowed")
	}
}

// TestParallelEmptyInputs: a join with an empty build or probe side ends
// cleanly with no rows.
func TestParallelEmptyInputs(t *testing.T) {
	rows, sch := benchRowsN(100)
	if got, err := Collect(JoinOn(NewValues(sch, nil), NewValues(sch, rows), [][2]string{{"k", "k"}})); err != nil || len(got) != 0 {
		t.Fatalf("empty build side: %d rows, err %v", len(got), err)
	}
	if got, err := Collect(JoinOn(NewValues(sch, rows), NewValues(sch, nil), [][2]string{{"k", "k"}})); err != nil || len(got) != 0 {
		t.Fatalf("empty probe side: %d rows, err %v", len(got), err)
	}
}

// TestParallelJoinHashCollisionSafety: an int and a date with the same
// payload hash alike but are different values, so the probe's key check,
// not the hash, decides a match: an int key joins the equal int only, and
// a date key joins no int.
func TestParallelJoinHashCollisionSafety(t *testing.T) {
	ints := tuple.NewSchema(tuple.Column{Name: "k", Kind: tuple.KindInt64})
	dates := tuple.NewSchema(tuple.Column{Name: "d", Kind: tuple.KindDate})
	build := []tuple.Row{{tuple.Int(1)}, {tuple.Int(2)}}
	got, err := Collect(JoinOn(NewValues(ints, build), NewValues(ints, []tuple.Row{{tuple.Int(1)}, {tuple.Int(3)}}), [][2]string{{"k", "k"}}))
	if err != nil || len(got) != 1 || got[0][0].I != 1 {
		t.Fatalf("int keys: got %v (err %v), want the single k=1 match", got, err)
	}
	got, err = Collect(JoinOn(NewValues(ints, build), NewValues(dates, []tuple.Row{{tuple.DateFromDays(1)}, {tuple.DateFromDays(2)}}), [][2]string{{"k", "d"}}))
	if err != nil || len(got) != 0 {
		t.Fatalf("int against date keys: got %v (err %v), want no match", got, err)
	}
}
