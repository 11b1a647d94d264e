package tuple

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refBatch is the row-major reference a typed Batch is checked against:
// the same operations, each the obvious loop over rows of Values.
type refBatch struct {
	schema *Schema
	rows   []Row
}

func (r *refBatch) appendRow(row Row) { r.rows = append(r.rows, row.Clone()) }

func (r *refBatch) appendProjected(row Row, pick []int) {
	out := make(Row, len(pick))
	for c, src := range pick {
		out[c] = row[src]
	}
	r.rows = append(r.rows, out)
}

func (r *refBatch) appendJoined(srcs []*refBatch, ids [][]int32, lo, hi int) {
	for k := lo; k < hi; k++ {
		var out Row
		for s, src := range srcs {
			out = append(out, src.rows[ids[s][k]]...)
		}
		r.rows = append(r.rows, out)
	}
}

func (r *refBatch) hashColumns(keys []int) []uint64 {
	out := make([]uint64, len(r.rows))
	for i, row := range r.rows {
		out[i] = HashRowKey(row, keys)
	}
	return out
}

// randKindValue draws a cell of kind k, the awkward floats included.
func randKindValue(rng *rand.Rand, k Kind) Value {
	switch k {
	case KindFloat64:
		return Float([]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), rng.NormFloat64(), float64(rng.Intn(5))}[rng.Intn(6)])
	case KindString:
		return Str(string(rune('a'+rng.Intn(4))) + fmt.Sprint(rng.Intn(3)))
	case KindDate:
		return DateFromDays(rng.Int63n(30000))
	case KindBool:
		return Bool(rng.Intn(2) == 1)
	default:
		return Int(rng.Int63n(41) - 20)
	}
}

func randSchema(rng *rand.Rand, prefix string, width int) *Schema {
	cols := make([]Column, width)
	for i := range cols {
		cols[i] = Column{Name: fmt.Sprintf("%s%d", prefix, i), Kind: Kind(rng.Intn(5))}
	}
	return NewSchema(cols...)
}

func randRows(rng *rand.Rand, s *Schema, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = make(Row, s.Len())
		for c, col := range s.Cols {
			rows[i][c] = randKindValue(rng, col.Kind)
		}
	}
	return rows
}

// sameCell compares cells exactly: kind and payload, floats by bit pattern
// (so NaN matches NaN and -0 does not match +0).
func sameCell(a, b Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S && math.Float64bits(a.F) == math.Float64bits(b.F)
}

func checkSame(t *testing.T, what string, got []Row, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, reference has %d", what, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d is %d wide, reference %d", what, i, len(got[i]), len(want[i]))
		}
		for c := range got[i] {
			if !sameCell(got[i][c], want[i][c]) {
				t.Fatalf("%s: row %d column %d = %#v, reference %#v", what, i, c, got[i][c], want[i][c])
			}
		}
	}
}

// checkBatch compares every read path of b with the reference.
func checkBatch(t *testing.T, what string, b *Batch, ref *refBatch) {
	t.Helper()
	if b.Len() != len(ref.rows) {
		t.Fatalf("%s: Len %d, reference %d", what, b.Len(), len(ref.rows))
	}
	checkSame(t, what+" Rows", b.Rows(), ref.rows)
	prefix := []Row{{Int(7)}}
	checkSame(t, what+" AppendRows", b.AppendRows(prefix)[1:], ref.rows)
	var scratch Row
	for i, want := range ref.rows {
		scratch = b.AppendRowTo(scratch[:0], i)
		checkSame(t, what+" AppendRowTo", []Row{scratch}, []Row{want})
		checkSame(t, what+" Row", []Row{b.Row(i)}, []Row{want})
		for c, col := range b.Schema().Cols {
			if got := b.Col(c).Value(col.Kind, i); !sameCell(got, want[c]) {
				t.Fatalf("%s: Col(%d).Value(%d) = %#v, reference %#v", what, c, i, got, want[c])
			}
		}
	}
	for _, keys := range [][]int{{}, {0}, {b.Schema().Len() - 1, 0}} {
		if b.Schema().Len() == 0 {
			keys = nil
		}
		got, want := b.HashColumns(keys, make([]uint64, 1)), ref.hashColumns(keys)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: HashColumns(%v) row %d = %x, reference %x", what, keys, i, got[i], want[i])
			}
		}
	}
}

// TestTypedBatchMatchesRowReference: over random schemas of all five kinds
// (zero columns included) and random rows, every way of filling a typed
// batch — row by row, by range, by selection, by projection, by join ids,
// by adopting columns — and every way of reading it back agrees cell for
// cell with a row-major reference, also when a batch grows past the
// capacity it was made with.
func TestTypedBatchMatchesRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 200; round++ {
		width := rng.Intn(7)
		if round < 10 {
			width = 0
		}
		sch := randSchema(rng, "c", width)
		n := rng.Intn(40)
		rows := randRows(rng, sch, n)
		what := fmt.Sprintf("round %d %v", round, sch)

		// Row by row into a batch made too small, then once more after Reset.
		b, ref := NewBatch(sch, 1+rng.Intn(4)), &refBatch{schema: sch}
		for _, r := range rows {
			b.AppendRow(r)
			ref.appendRow(r)
		}
		checkBatch(t, what+" AppendRow", b, ref)
		if b.Full() != (n >= b.Cap()) {
			t.Fatalf("%s: %d rows in a batch of Cap %d: Full %v", what, n, b.Cap(), b.Full())
		}
		b.Reset()
		checkBatch(t, what+" Reset", b, &refBatch{schema: sch})
		checkBatch(t, what+" FromRows", FromRows(sch, rows), ref)

		// Whole batches and ranges, growing on the way.
		dst, dref := NewBatch(sch, 2), &refBatch{schema: sch}
		for k := 0; k < 3; k++ {
			dst.AppendRange(b, 0, b.Len())
			dst.AppendRange(FromRows(sch, rows), 0, n)
			dref.rows = append(dref.rows, rows...)
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n-lo+1)
			dst.AppendRange(FromRows(sch, rows), lo, hi)
			dref.rows = append(dref.rows, rows[lo:hi]...)
		}
		checkBatch(t, what+" AppendRange", dst, dref)

		// The segment-to-batch copies: a pick of the columns, by range, by
		// selection and row by row; then the same columns adopted.
		full := FromRows(sch, rows)
		cols := make([]Vector, width)
		for c := range cols {
			cols[c] = full.Col(c)
		}
		var pick []int
		for c := 0; c < width; c++ {
			if rng.Intn(2) == 0 {
				pick = append(pick, c)
			}
		}
		if pick == nil {
			pick = []int{}
		}
		narrow := sch.Project(pick)
		var sel []int32
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				sel = append(sel, int32(i))
			}
		}
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		ranged, selected, rowwise := NewBatch(narrow, 1), NewBatch(narrow, len(sel)), NewBatch(narrow, 3)
		rref, sref := &refBatch{schema: narrow}, &refBatch{schema: narrow}
		ranged.AppendColumns(cols, pick, lo, hi)
		for _, r := range rows[lo:hi] {
			rref.appendProjected(r, pick)
		}
		selected.AppendSelected(cols, pick, sel)
		for _, i := range sel {
			rowwise.AppendProjected(rows[i], pick)
			sref.appendProjected(rows[i], pick)
		}
		checkBatch(t, what+" AppendColumns", ranged, rref)
		checkBatch(t, what+" AppendSelected", selected, sref)
		checkBatch(t, what+" AppendProjected", rowwise, sref)
		picked := make([]Vector, len(pick))
		for c, src := range pick {
			picked[c] = cols[src]
		}
		take := rng.Intn(n + 1)
		aref := &refBatch{schema: narrow}
		for _, r := range rows[:take] {
			aref.appendProjected(r, pick)
		}
		adopted := BatchOf(narrow, picked, take)
		if adopted.Cap() != take || !adopted.Full() {
			t.Fatalf("%s: BatchOf: Cap %d Full %v, want %d true", what, adopted.Cap(), adopted.Full(), take)
		}
		checkBatch(t, what+" BatchOf", adopted, aref)

		// Late materialization of a join: ids into two sources.
		other := randSchema(rng, "o", rng.Intn(4))
		orows := randRows(rng, other, 1+rng.Intn(10))
		if n == 0 {
			continue
		}
		ids := [][]int32{nil, nil}
		for k := rng.Intn(60); k > 0; k-- {
			ids[0], ids[1] = append(ids[0], int32(rng.Intn(n))), append(ids[1], int32(rng.Intn(len(orows))))
		}
		jsch := sch.Concat(other)
		joined, jref := NewBatch(jsch, 2), &refBatch{schema: jsch}
		cut := rng.Intn(len(ids[0]) + 1)
		srcs, rsrcs := []*Batch{full, FromRows(other, orows)}, []*refBatch{{rows: rows}, {rows: orows}}
		picks := [][]int{every(sch), every(other)}
		joined.AppendJoined(srcs, picks, ids, 0, cut)
		joined.AppendJoined(srcs, picks, ids, cut, len(ids[0]))
		jref.appendJoined(rsrcs, ids, 0, len(ids[0]))
		checkBatch(t, what+" AppendJoined", joined, jref)
	}
}

// TestMatchKeysFollowsEqual: MatchKeys keeps exactly the row pairs whose key
// cells are Equal and of one kind, in order — NaN with NaN, -0 with +0,
// several key columns at once, build rows in any chunk of the store.
func TestMatchKeysFollowsEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 100; round++ {
		as, bs := randSchema(rng, "a", 1+rng.Intn(4)), randSchema(rng, "b", 1+rng.Intn(4))
		arows, brows := randRows(rng, as, 1+rng.Intn(20)), randRows(rng, bs, 1+rng.Intn(20))
		a := chunkedFrom(as, arows, 1+rng.Intn(3), 1+rng.Intn(5))
		var ak, bk []int
		for k := 1 + rng.Intn(2); k > 0; k-- {
			ak, bk = append(ak, rng.Intn(as.Len())), append(bk, rng.Intn(bs.Len()))
		}
		var at []Loc
		var bi []int32
		var want [][2]int32
		for k := rng.Intn(80); k > 0; k-- {
			x, y := int32(rng.Intn(len(arows))), int32(rng.Intn(len(brows)))
			at, bi = append(at, a.Loc(x)), append(bi, y)
			equal := true
			for c := range ak {
				av, bv := arows[x][ak[c]], brows[y][bk[c]]
				equal = equal && av.K == bv.K && Equal(av, bv)
			}
			if equal {
				want = append(want, [2]int32{x, y})
			}
		}
		n := MatchKeys(a, ak, at, FromRows(bs, brows), bk, bi)
		if n != len(want) {
			t.Fatalf("round %d: %d pairs kept, want %d", round, n, len(want))
		}
		for k, w := range want {
			if at[k] != a.Loc(w[0]) || bi[k] != w[1] {
				t.Fatalf("round %d: pair %d = (%v, %d), want %v at %v", round, k, at[k], bi[k], w, a.Loc(w[0]))
			}
		}
	}
}

// TestFloatKeysHonourTheHashContract: values that are Equal hash
// identically — -0 and +0, every NaN — on the scalar and the vectorized
// path, and Compare is a total order with NaN below every number.
func TestFloatKeysHonourTheHashContract(t *testing.T) {
	negZero, nan2 := math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000123)
	for _, p := range [][2]float64{{0, negZero}, {math.NaN(), nan2}, {math.NaN(), math.NaN()}} {
		a, b := Float(p[0]), Float(p[1])
		if !Equal(a, b) || a.Hash() != b.Hash() || HashKey(a) != HashKey(b) {
			t.Fatalf("%v vs %v (bits %x, %x): Equal %v, hashes %x %x", a, b, math.Float64bits(p[0]), math.Float64bits(p[1]), Equal(a, b), a.Hash(), b.Hash())
		}
		if !SameKey(p[0], p[1]) {
			t.Fatalf("SameKey(%v, %v) = false", p[0], p[1])
		}
	}
	sch := NewSchema(Column{Name: "f", Kind: KindFloat64})
	hashes := FromRows(sch, []Row{{Float(0)}, {Float(negZero)}, {Float(math.NaN())}, {Float(nan2)}, {Float(1)}}).HashColumns([]int{0}, nil)
	if hashes[0] != hashes[1] || hashes[2] != hashes[3] || hashes[0] == hashes[2] || hashes[0] == hashes[4] {
		t.Fatalf("HashColumns over 0, -0, NaN, NaN', 1: %x", hashes)
	}
	for _, x := range []float64{math.Inf(-1), -1, 0, 1, math.Inf(1)} {
		if Compare(Float(math.NaN()), Float(x)) != -1 || Compare(Float(x), Float(math.NaN())) != 1 || Equal(Float(x), Float(math.NaN())) {
			t.Fatalf("NaN must sort below %v and equal only NaN", x)
		}
	}
}
