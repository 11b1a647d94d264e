package engine

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/expr"
	"repro/internal/tuple"
)

// referenceHashJoin is the row-at-a-time hash join this engine ran before
// its build side became columnar, kept as the order oracle: the build side
// as materialized rows under a HashIndex, each probe row walking its
// bucket in build order and keeping the rows whose keys are equal. Output
// rows are build row ++ probe row, in probe row order, then chain order.
func referenceHashJoin(build, probe []*tuple.Batch, leftKeys, rightKeys []int) []tuple.Row {
	var buildRows []tuple.Row
	var hashes []uint64
	for _, b := range build {
		hashes = append(hashes, b.HashColumns(leftKeys, nil)...)
		buildRows = b.AppendRows(buildRows)
	}
	var index tuple.HashIndex
	index.Build(hashes)
	var out []tuple.Row
	for _, b := range probe {
		for i, row := range b.Rows() {
			for m := index.First(tuple.HashRowKey(row, rightKeys)); m >= 0; m = index.Next(m) {
				if rowKeysEqual(buildRows[m], leftKeys, row, rightKeys) {
					out = append(out, buildRows[m].Concat(b.Row(i)))
				}
			}
		}
	}
	return out
}

// rowKeysEqual is that join's key check: same kind, Equal values.
func rowKeysEqual(a tuple.Row, ak []int, b tuple.Row, bk []int) bool {
	for i := range ak {
		if av, bv := a[ak[i]], b[bk[i]]; av.K != bv.K || !tuple.Equal(av, bv) {
			return false
		}
	}
	return true
}

// sameRowsInOrder compares two results row by row, floats by Equal (NaN is
// NaN, and -0 prints differently from 0 so String tells them apart).
func sameRowsInOrder(t *testing.T, what string, got, want []tuple.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Fatalf("%s: row %d = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// chopped cuts rows into batches of the given sizes, cycling through them.
func chopped(sch *tuple.Schema, rows []tuple.Row, sizes ...int) []*tuple.Batch {
	var out []*tuple.Batch
	for k := 0; len(rows) > 0; k++ {
		n := min(sizes[k%len(sizes)], len(rows))
		out = append(out, tuple.FromRows(sch, rows[:n]))
		rows = rows[n:]
	}
	return out
}

// TestHashJoinMatchesRowReference: the columnar join returns the rows of
// the row-at-a-time reference in the reference's order — over duplicate
// keys on both sides, few buckets shared by many keys, an empty build or
// probe side, int, string, float and two-column keys, probe batches small
// enough that the output batch fills in the middle of a chain and wider
// than one output batch, build sides that end one row short of, at and one
// row past a chunk boundary of the chunked build store with batches that
// straddle boundaries, and again on re-Open.
func TestHashJoinMatchesRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ls := tuple.NewSchema(
		tuple.Column{Name: "li", Kind: tuple.KindInt64}, tuple.Column{Name: "ls", Kind: tuple.KindString},
		tuple.Column{Name: "lf", Kind: tuple.KindFloat64}, tuple.Column{Name: "ld", Kind: tuple.KindDate},
	)
	rs := tuple.NewSchema(
		tuple.Column{Name: "rf", Kind: tuple.KindFloat64}, tuple.Column{Name: "ri", Kind: tuple.KindInt64},
		tuple.Column{Name: "rs", Kind: tuple.KindString},
	)
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, 2.5}
	// gen draws n build and probe rows over distinct keys; string keys take
	// k%strMod of them, float keys cycle through floats and, with wide set,
	// are k/2 past them.
	gen := func(n, distinct, strMod int, wide bool) (l, r []tuple.Row) {
		float := func(k int) float64 {
			if wide && k >= len(floats) {
				return float64(k) / 2
			}
			return floats[k%len(floats)]
		}
		for i := 0; i < n; i++ {
			k := rng.Intn(distinct)
			l = append(l, tuple.Row{tuple.Int(int64(k)), tuple.Str(fmt.Sprint("s", k%strMod)), tuple.Float(float(k)), tuple.DateFromDays(int64(i))})
			k = rng.Intn(distinct + 2) // some probe keys have no match
			r = append(r, tuple.Row{tuple.Float(float(k)), tuple.Int(int64(k)), tuple.Str(fmt.Sprint("s", k%(strMod+2)))})
		}
		return l, r
	}
	check := func(name string, lrows, rrows []tuple.Row, buildCut, probeCut []int) {
		build, probe := chopped(ls, lrows, buildCut...), chopped(rs, rrows, probeCut...)
		for _, keys := range [][2][]int{
			{{0}, {1}},       // int
			{{1}, {2}},       // string
			{{2}, {0}},       // float: 0 and -0 join, NaN joins NaN
			{{0, 1}, {1, 2}}, // two columns
			{{3}, {1}},       // date against int: kinds differ, nothing matches
		} {
			want := referenceHashJoin(build, probe, keys[0], keys[1])
			what := fmt.Sprintf("%s, keys %v", name, keys)
			join := NewHashJoin(NewBatchValues(ls, build), NewBatchValues(rs, probe), keys[0], keys[1])
			for pass := 0; pass < 2; pass++ {
				got, err := Collect(join)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				sameRowsInOrder(t, fmt.Sprintf("%s, pass %d", what, pass), got, want)
			}
		}
	}
	for _, tc := range []struct {
		name               string
		nBuild, nProbe     int
		distinct           int
		buildCut, probeCut []int
	}{
		{"duplicates, output fills mid-chain", 120, 90, 5, []int{50, 7}, []int{3, 1, 4}},
		{"one batch each", 40, 40, 30, []int{1024}, []int{1024}},
		{"wide probe batches", 100, 1200, 80, []int{64}, []int{1024, 176}},
		{"empty build side", 0, 50, 4, []int{8}, []int{16}},
		{"empty probe side", 50, 0, 4, []int{8}, []int{16}},
		{"single row", 1, 1, 1, []int{1}, []int{1}},
	} {
		lrows, rrows := gen(max(tc.nBuild, tc.nProbe), tc.distinct, 7, false)
		check(tc.name, lrows[:tc.nBuild], rrows[:tc.nProbe], tc.buildCut, tc.probeCut)
	}

	// Chunk boundaries: a first build batch of 1, 3 or 189 rows makes the
	// store's first chunk c0 = 1, 4 or 256 rows and chunk k end at row
	// c0·(2^(k+1)−1); build sides end one short of, at and one past the end
	// of chunk k-1. The later cuts straddle boundaries.
	for _, cuts := range [][]int{{1, 2, 5}, {3, 1000, 1025}, {189, 7, 300}} {
		c0 := 1
		for c0 < cuts[0] {
			c0 *= 2
		}
		for k := 1; k <= 4; k++ {
			for _, d := range []int{-1, 0, 1} {
				n := c0*(1<<k-1) + d
				if n < 1 {
					continue
				}
				lrows, rrows := gen(max(n, 300), n/2+1, n/2+1, true)
				check(fmt.Sprintf("c0 %d, %d build rows cut %v", c0, n, cuts), lrows[:n], rrows[:300], cuts, []int{300})
			}
		}
	}
}

// TestHashJoinBuildAllocatesOneCopy: opening a join over a 100 000-row
// build side that arrives in 189-row batches — the shape batch-vanilla
// sends it — allocates at most 1.5× one copy of the build cells plus the
// index's two int32 arrays: no build side that doubles and re-copies, no
// n×8-byte array of build-row hashes.
func TestHashJoinBuildAllocatesOneCopy(t *testing.T) {
	const n, cut = 100_000, 189
	ls := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt64}, tuple.Column{Name: "s", Kind: tuple.KindString},
		tuple.Column{Name: "f", Kind: tuple.KindFloat64},
	)
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{tuple.Int(int64(i)), tuple.Str("s"), tuple.Float(float64(i))}
	}
	build := chopped(ls, rows, cut)
	probe := tuple.NewSchema(tuple.Column{Name: "r", Kind: tuple.KindInt64})
	cells := float64(n * (8 + 16 + 8))
	buckets := 1 << bits.Len(2*n-1)
	index := float64(4 * (buckets + n))
	const runs = 3
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 0; r < runs; r++ {
		join := NewHashJoin(NewBatchValues(ls, build), NewBatchValues(probe, nil), []int{0}, []int{0})
		if err := join.Open(); err != nil {
			t.Fatal(err)
		}
		join.Close()
	}
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / runs
	budget := 1.5*cells + index
	t.Logf("Open allocated %.0f bytes: %.2f× the build cells (%.0f) plus the index (%.0f); budget %.0f", got, (got-index)/cells, cells, index, budget)
	if got > budget {
		t.Errorf("Open allocated %.0f bytes over a %.0f-byte build side; budget %.0f (1.5× the cells plus the index)", got, cells, budget)
	}
}

// TestFloatKeysJoinAndGroupByValue: 0.0 and -0.0 are one key and NaN is a
// key equal to itself — in a HashJoin and in a HashAgg, which used to split
// ±0 by bit pattern and match NaN with every float.
func TestFloatKeysJoinAndGroupByValue(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ls := tuple.NewSchema(tuple.Column{Name: "lf", Kind: tuple.KindFloat64}, tuple.Column{Name: "l", Kind: tuple.KindInt64})
	rs := tuple.NewSchema(tuple.Column{Name: "rf", Kind: tuple.KindFloat64}, tuple.Column{Name: "r", Kind: tuple.KindInt64})
	var lrows, rrows []tuple.Row
	for i, f := range []float64{0, negZero, math.NaN(), 1} {
		lrows = append(lrows, tuple.Row{tuple.Float(f), tuple.Int(int64(i))})
	}
	for i, f := range []float64{negZero, math.NaN(), 2} {
		rrows = append(rrows, tuple.Row{tuple.Float(f), tuple.Int(int64(10 + i))})
	}
	got, err := Collect(JoinOn(NewValues(ls, lrows), NewValues(rs, rrows), [][2]string{{"lf", "rf"}}))
	if err != nil {
		t.Fatal(err)
	}
	// -0 finds 0 and -0 (build order), NaN finds NaN only, 2 nothing.
	want := []string{"(0, 0, -0, 10)", "(-0, 1, -0, 10)", "(NaN, 2, NaN, 11)"}
	if len(got) != len(want) {
		t.Fatalf("join returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i].String() != want[i] {
			t.Fatalf("join row %d = %v, want %v", i, got[i], want[i])
		}
	}

	agg := NewHashAgg(NewValues(ls, lrows),
		[]GroupCol{{Name: "g", Kind: tuple.KindFloat64, E: expr.Bind(ls, "lf")}},
		[]AggSpec{{Kind: AggCount, Name: "n"}})
	groups, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{}
	for _, g := range groups {
		counts[fmt.Sprint(math.Abs(g[0].F))] += g[1].AsInt()
	}
	if len(groups) != 3 || counts["0"] != 2 || counts["NaN"] != 1 || counts["1"] != 1 {
		t.Fatalf("groups %v, want ±0 x2, NaN x1, 1 x1", groups)
	}
}

// TestHashJoinCarriesItsSelection: a join that carries a selection of its
// inputs' columns returns the full join's rows restricted to those columns,
// in the same order, over a build side that spans chunks, and keeps in its
// build store only the carried left columns and the key.
func TestHashJoinCarriesItsSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ls := tuple.NewSchema(
		tuple.Column{Name: "li", Kind: tuple.KindInt64}, tuple.Column{Name: "ls", Kind: tuple.KindString},
		tuple.Column{Name: "lf", Kind: tuple.KindFloat64}, tuple.Column{Name: "ld", Kind: tuple.KindDate},
	)
	rs := tuple.NewSchema(tuple.Column{Name: "rs", Kind: tuple.KindString}, tuple.Column{Name: "ri", Kind: tuple.KindInt64})
	var lrows, rrows []tuple.Row
	for i := 0; i < 300; i++ {
		k := rng.Intn(40)
		lrows = append(lrows, tuple.Row{tuple.Int(int64(i)), tuple.Str(fmt.Sprint("s", k)), tuple.Float(float64(k) / 2), tuple.DateFromDays(int64(k))})
		rrows = append(rrows, tuple.Row{tuple.Str(fmt.Sprint("s", rng.Intn(45))), tuple.Int(int64(i))})
	}
	build, probe := chopped(ls, lrows, 189, 7), chopped(rs, rrows, 50, 3)
	full := referenceHashJoin(build, probe, []int{1}, []int{0})
	for _, tc := range []struct {
		carry []int
		store []string
	}{
		{[]int{0, 3, 5}, []string{"li", "ls", "ld"}},
		{[]int{1, 4}, []string{"ls"}},
		{[]int{5}, []string{"ls"}},
		{[]int{}, []string{"ls"}},
		{[]int{0, 1, 2, 3, 4, 5}, []string{"li", "ls", "lf", "ld"}},
	} {
		join := NewHashJoinCarry(NewBatchValues(ls, build), NewBatchValues(rs, probe), []int{1}, []int{0}, tc.carry)
		if got := join.store.ColumnNames(); !reflect.DeepEqual(got, tc.store) {
			t.Errorf("carry %v: build store holds %v, want %v", tc.carry, got, tc.store)
		}
		want := make([]tuple.Row, len(full))
		for i, r := range full {
			want[i] = tuple.Row{}
			for _, c := range tc.carry {
				want[i] = append(want[i], r[c])
			}
		}
		got, err := Collect(join)
		if err != nil {
			t.Fatal(err)
		}
		sameRowsInOrder(t, fmt.Sprintf("carry %v", tc.carry), got, want)
	}
}
