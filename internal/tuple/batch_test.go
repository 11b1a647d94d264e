package tuple

import (
	"math/rand"
	"reflect"
	"testing"
)

func batchTestSchema() *Schema {
	return NewSchema(
		Column{Name: "i", Kind: KindInt64},
		Column{Name: "f", Kind: KindFloat64},
		Column{Name: "s", Kind: KindString},
		Column{Name: "d", Kind: KindDate},
		Column{Name: "b", Kind: KindBool},
	)
}

func randRow(rng *rand.Rand) Row {
	return Row{
		Int(rng.Int63n(1000) - 500),
		Float(rng.NormFloat64()),
		Str(string(rune('a' + rng.Intn(26)))),
		DateFromDays(rng.Int63n(20000)),
		Bool(rng.Intn(2) == 1),
	}
}

// TestAppendRowsAllocatesArenaAndHeaders: appending a batch's rows to an
// empty slice makes two allocations, however many rows — the arena of
// values and the row headers, grown once rather than by doubling — and
// appending to a slice with room for them makes only the arena.
func TestAppendRowsAllocatesArenaAndHeaders(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rows := make([]Row, 25)
	for i := range rows {
		rows[i] = randRow(rng)
	}
	b := FromRows(batchTestSchema(), rows)
	var got []Row
	if n := testing.AllocsPerRun(20, func() { got = b.AppendRows(nil) }); n != 2 {
		t.Fatalf("AppendRows of %d rows to a nil slice: %.1f allocations, want 2", len(rows), n)
	}
	if !reflect.DeepEqual(got, rows) {
		t.Fatal("AppendRows differs from the rows the batch was built from")
	}
	dst := make([]Row, 0, len(rows))
	if n := testing.AllocsPerRun(20, func() { got = b.AppendRows(dst) }); n != 1 {
		t.Fatalf("AppendRows of %d rows into room for them: %.1f allocations, want 1", len(rows), n)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sch := batchTestSchema()
	rows := make([]Row, 100)
	for i := range rows {
		rows[i] = randRow(rng)
	}
	b := FromRows(sch, rows)
	if b.Len() != len(rows) {
		t.Fatalf("len %d", b.Len())
	}
	if !reflect.DeepEqual(b.Rows(), rows) {
		t.Fatal("Rows() round trip differs")
	}
	for i := range rows {
		if !reflect.DeepEqual(b.Row(i), rows[i]) {
			t.Fatalf("Row(%d) differs", i)
		}
		var scratch Row
		if got := b.AppendRowTo(scratch[:0], i); !reflect.DeepEqual(got, rows[i]) {
			t.Fatalf("AppendRowTo(%d) differs", i)
		}
	}
	// Columns expose the same values column-wise.
	for c := 0; c < sch.Len(); c++ {
		col := b.Col(c)
		for i := range rows {
			if !Equal(col.Value(sch.Cols[c].Kind, i), rows[i][c]) {
				t.Fatalf("col %d row %d differs", c, i)
			}
		}
	}
}

func TestBatchResetReuse(t *testing.T) {
	sch := batchTestSchema()
	b := NewBatch(sch, 4)
	rng := rand.New(rand.NewSource(2))
	first := randRow(rng)
	b.AppendRow(first)
	got := b.Rows() // materialized rows must survive reset + refill
	b.Reset()
	if b.Len() != 0 || b.Cap() < 4 {
		t.Fatalf("after reset: len %d cap %d", b.Len(), b.Cap())
	}
	b.AppendRow(randRow(rng))
	if !reflect.DeepEqual(got[0], first) {
		t.Fatal("materialized row mutated by reuse")
	}
}

func TestBatchAppendBatchRow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sch := batchTestSchema()
	rows := make([]Row, 10)
	for i := range rows {
		rows[i] = randRow(rng)
	}
	src := FromRows(sch, rows)
	dst := NewBatch(sch, 10)
	for i := len(rows) - 1; i >= 0; i-- {
		dst.AppendRange(src, i, i+1)
	}
	for i := range rows {
		if !reflect.DeepEqual(dst.Row(i), rows[len(rows)-1-i]) {
			t.Fatalf("row %d differs", i)
		}
	}
}

// TestHashColumnsMatchesHashRowKey: the vectorized column hash, the scalar
// row-key hash and the single-value key hash must agree — the engines mix
// them on the two sides of a join.
func TestHashColumnsMatchesHashRowKey(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sch := batchTestSchema()
	rows := make([]Row, 200)
	for i := range rows {
		rows[i] = randRow(rng)
	}
	b := FromRows(sch, rows)
	for _, keys := range [][]int{{0}, {2}, {1, 3}, {0, 2, 4}} {
		hashes := b.HashColumns(keys, nil)
		for i, r := range rows {
			if want := HashRowKey(r, keys); hashes[i] != want {
				t.Fatalf("keys %v row %d: batch %x, row %x", keys, i, hashes[i], want)
			}
		}
		if len(keys) == 1 {
			for i, r := range rows {
				if HashKey(r[keys[0]]) != hashes[i] {
					t.Fatalf("HashKey key %d row %d differs", keys[0], i)
				}
			}
		}
	}
	// Buffer reuse must not change results.
	buf := make([]uint64, 1)
	if got := b.HashColumns([]int{0}, buf); got[0] != HashRowKey(rows[0], []int{0}) {
		t.Fatal("reused buffer produced a different hash")
	}
}

// TestValueHashEqualImpliesHashEqual: equal values hash identically across
// construction paths.
func TestValueHashEqualImpliesHashEqual(t *testing.T) {
	pairs := [][2]Value{
		{Int(42), Int(42)},
		{Float(1.5), Float(1.5)},
		{Str("xyz"), Str("xy" + "z")},
		{Bool(true), Bool(true)},
		{DateFromDays(100), DateFromDays(100)},
	}
	for _, p := range pairs {
		if !Equal(p[0], p[1]) || p[0].Hash() != p[1].Hash() {
			t.Fatalf("%v vs %v: equal values must hash equal", p[0], p[1])
		}
	}
	if Int(3).Hash() == DateFromDays(3).Hash() {
		// Same payload, different kind family is fine to collide only for
		// int-tagged kinds; int and date share the tag by design.
		t.Log("int/date share the integer tag (documented behaviour)")
	}
	if Int(7).Hash() == Str("7").Hash() {
		t.Fatal("int and string with same rendering must not collide")
	}
}

// TestBatchOfAdoptsColumns: BatchOf wraps the given columns as they are —
// a projected decode costs no copy — as a full batch of n rows.
func TestBatchOfAdoptsColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sch := batchTestSchema()
	rows := make([]Row, 7)
	for i := range rows {
		rows[i] = randRow(rng)
	}
	full := FromRows(sch, rows)
	narrow := sch.Project([]int{0, 2})
	b := BatchOf(narrow, []Vector{full.Col(0), full.Col(2)}, 5)
	if b.Len() != 5 || b.Cap() != 5 || !b.Full() {
		t.Fatalf("len %d cap %d full %v, want 5 5 true", b.Len(), b.Cap(), b.Full())
	}
	for i := 0; i < b.Len(); i++ {
		if want := (Row{rows[i][0], rows[i][2]}); !reflect.DeepEqual(b.Row(i), want) {
			t.Fatalf("row %d = %v, want %v", i, b.Row(i), want)
		}
	}
	if &b.Col(0).I[0] != &full.Col(0).I[0] || &b.Col(1).S[0] != &full.Col(2).S[0] {
		t.Fatal("BatchOf copied a provided column")
	}
}

// TestViewLeavesItsColumnsAlone: a view shares the columns it wraps, grows
// into buffers of its own when appended to, and refuses Reset, which would
// hand the owner's cells out for overwriting.
func TestViewLeavesItsColumnsAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sch := batchTestSchema()
	rows := []Row{randRow(rng), randRow(rng), randRow(rng)}
	owner := FromRows(sch, rows)
	cols := make([]Vector, sch.Len())
	for c := range cols {
		cols[c] = owner.Col(c)
	}
	v := ViewOf(sch, cols, 2)
	if !v.View() || owner.View() || &v.Col(0).I[0] != &owner.Col(0).I[0] {
		t.Fatal("ViewOf did not share its columns as a view")
	}
	v.AppendRow(randRow(rng))
	if !reflect.DeepEqual(owner.Rows(), rows) {
		t.Fatal("appending to a view wrote into its owner's columns")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of a view did not panic")
		}
	}()
	v.Reset()
}

// TestZeroColumnBatchCountsRows: a batch over a schema without columns — a
// COUNT(*) leg — has the capacity it was made with and counts the rows
// appended to it, through every append path.
func TestZeroColumnBatchCountsRows(t *testing.T) {
	none := NewSchema()
	b := NewBatch(none, 4)
	if b.Cap() != 4 || b.Full() {
		t.Fatalf("new batch: cap %d full %v, want 4 false", b.Cap(), b.Full())
	}
	b.AppendRow(Row{})
	b.AppendProjected(Row{Int(1), Str("x")}, []int{})
	b.AppendColumns([]Vector{{I: []int64{1, 2, 3}}}, []int{}, 1, 3)
	if b.Len() != 4 || !b.Full() {
		t.Fatalf("after 4 rows: len %d full %v", b.Len(), b.Full())
	}
	b.Reset()
	b.AppendSelected([]Vector{{I: []int64{1, 2, 3}}}, []int{}, []int32{0, 2})
	if b.Len() != 2 || b.Full() {
		t.Fatalf("after reset + 2 rows: len %d full %v", b.Len(), b.Full())
	}
	if rows := b.Rows(); len(rows) != 2 || len(rows[0]) != 0 {
		t.Fatalf("rows %v, want two empty rows", rows)
	}
	if adopted := BatchOf(none, nil, 9); adopted.Len() != 9 || adopted.Cap() != 9 {
		t.Fatalf("BatchOf: len %d cap %d, want 9 9", adopted.Len(), adopted.Cap())
	}
	joined := NewBatch(none, 3)
	joined.AppendJoined([]*Batch{b}, [][]int{{}}, [][]int32{{0, 1, 0}}, 0, 3)
	if joined.Len() != 3 {
		t.Fatalf("AppendJoined: len %d, want 3", joined.Len())
	}
}

// TestAppendPicksColumns: the three segment-to-batch copies read batch
// column c from source column pick[c], whole ranges and selections alike.
func TestAppendPicksColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sch := batchTestSchema()
	rows := make([]Row, 12)
	for i := range rows {
		rows[i] = randRow(rng)
	}
	full := FromRows(sch, rows)
	cols := make([]Vector, sch.Len())
	for c := range cols {
		cols[c] = full.Col(c)
	}
	pick := []int{1, 4}
	narrow := sch.Project(pick)
	sel := []int32{0, 3, 4, 11}

	ranged := NewBatch(narrow, 2) // grows past its capacity
	ranged.AppendColumns(cols, pick, 2, 9)
	selected := NewBatch(narrow, len(sel))
	selected.AppendSelected(cols, pick, sel)
	rowwise := NewBatch(narrow, len(sel))
	for _, i := range sel {
		rowwise.AppendProjected(rows[i], pick)
	}
	if ranged.Len() != 7 || selected.Len() != len(sel) || rowwise.Len() != len(sel) {
		t.Fatalf("lens %d %d %d", ranged.Len(), selected.Len(), rowwise.Len())
	}
	for k := 0; k < ranged.Len(); k++ {
		if want := (Row{rows[2+k][1], rows[2+k][4]}); !reflect.DeepEqual(ranged.Row(k), want) {
			t.Fatalf("range row %d = %v, want %v", k, ranged.Row(k), want)
		}
	}
	for k, i := range sel {
		want := Row{rows[i][1], rows[i][4]}
		if !reflect.DeepEqual(selected.Row(k), want) || !reflect.DeepEqual(rowwise.Row(k), want) {
			t.Fatalf("selection %d: %v / %v, want %v", k, selected.Row(k), rowwise.Row(k), want)
		}
	}
}

// TestAppendJoinedGathersByRowID: AppendJoined lays the selected rows of
// each source side by side, in id order, for any [lo, hi) window, and only
// the columns it is asked for.
func TestAppendJoinedGathersByRowID(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ls := NewSchema(Column{Name: "a", Kind: KindInt64}, Column{Name: "b", Kind: KindString})
	rs := NewSchema(Column{Name: "c", Kind: KindFloat64})
	var lrows, rrows []Row
	for i := 0; i < 20; i++ {
		lrows = append(lrows, Row{Int(int64(i)), Str(string(rune('a' + i)))})
		rrows = append(rrows, Row{Float(float64(i) / 2)})
	}
	srcs := []*Batch{FromRows(ls, lrows), FromRows(rs, rrows)}
	ids := [][]int32{nil, nil}
	var want []Row
	for k := 0; k < 50; k++ {
		l, r := rng.Intn(20), rng.Intn(20)
		ids[0], ids[1] = append(ids[0], int32(l)), append(ids[1], int32(r))
		want = append(want, lrows[l].Concat(rrows[r]))
	}
	out, all := NewBatch(ls.Concat(rs), 4), [][]int{{0, 1}, {0}}
	out.AppendJoined(srcs, all, ids, 0, 13)
	out.AppendJoined(srcs, all, ids, 13, 13)
	out.AppendJoined(srcs, all, ids, 13, 50)
	if !reflect.DeepEqual(out.Rows(), want) {
		t.Fatalf("joined rows differ:\n got %v\nwant %v", out.Rows(), want)
	}
	picked := NewBatch(NewSchema(ls.Cols[1], rs.Cols[0]), 4)
	picked.AppendJoined(srcs, [][]int{{1}, {0}}, ids, 0, 50)
	for k, r := range picked.Rows() {
		if w := (Row{want[k][1], want[k][2]}); !reflect.DeepEqual(r, w) {
			t.Fatalf("picked row %d = %v, want %v", k, r, w)
		}
	}
	if got := out.AppendRows(out.Rows()[:2]); !reflect.DeepEqual(got[2:], want) || len(got) != 52 {
		t.Fatal("AppendRows did not append the batch's rows after dst's")
	}
}

// TestHashIndexChainsAscending: every row is reachable from its hash's
// bucket, chains ascend, and rows with equal hashes therefore come out in
// build order — also when many keys share a bucket, when the index is
// rebuilt smaller, and when it is empty.
func TestHashIndexChainsAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ix HashIndex
	for _, n := range []int{0, 1, 2, 300, 17} {
		hashes := make([]uint64, n)
		for i := range hashes {
			// Few distinct hashes, some differing only in the low bits, so
			// buckets hold duplicates and foreign keys alike.
			hashes[i] = uint64(rng.Intn(8)) | uint64(rng.Intn(3))<<60
		}
		ix.Build(hashes)
		for h := uint64(0); h < 8; h++ {
			for hi := uint64(0); hi < 3; hi++ {
				key := h | hi<<60
				var got, want []int32
				prev := int32(-1)
				for i := ix.First(key); i >= 0; i = ix.Next(i) {
					if i <= prev {
						t.Fatalf("n=%d: chain not ascending: %d after %d", n, i, prev)
					}
					prev = i
					if hashes[i] == key {
						got = append(got, i)
					}
				}
				for i, x := range hashes {
					if x == key {
						want = append(want, int32(i))
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d hash %x: rows %v, want %v", n, key, got, want)
				}
			}
		}
	}
}
