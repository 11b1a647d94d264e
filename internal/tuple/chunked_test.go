package tuple

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// pieces cuts rows into batches of the given sizes, cycling through them.
func pieces(sch *Schema, rows []Row, sizes ...int) []*Batch {
	var out []*Batch
	for k := 0; len(rows) > 0; k++ {
		m := min(sizes[k%len(sizes)], len(rows))
		out = append(out, FromRows(sch, rows[:m]))
		rows = rows[m:]
	}
	return out
}

// every lists a schema's columns in order: the identity selection.
func every(s *Schema) []int {
	cols := make([]int, s.Len())
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// chunkedFrom appends the pieces of rows to a fresh ChunkedBatch.
func chunkedFrom(sch *Schema, rows []Row, sizes ...int) *ChunkedBatch {
	var c ChunkedBatch
	c.Reset(sch)
	for _, b := range pieces(sch, rows, sizes...) {
		c.Append(b, every(sch))
	}
	return &c
}

// TestChunkedBuildMatchesBatch: a ChunkedBatch filled by batches that
// straddle its chunk boundaries holds, for every row id, the cells, range
// hashes, key matches and gathered rows of one flat batch built by
// AppendRange from the same input — over random schemas of all five kinds
// (zero columns included) and first batches of 1, 3 and 189 rows.
func TestChunkedBuildMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 60; round++ {
		sch := randSchema(rng, "c", rng.Intn(5))
		if round < 3 {
			sch = NewSchema()
		}
		n := rng.Intn(700)
		rows := randRows(rng, sch, n)
		cuts := []int{[]int{1, 3, 189}[round%3], 1 + rng.Intn(300), 1 + rng.Intn(40)}
		what := fmt.Sprintf("round %d %v, %d rows cut %v", round, sch, n, cuts)

		store := chunkedFrom(sch, rows, cuts...)
		flat := NewBatch(sch, 1)
		for _, b := range pieces(sch, rows, cuts...) {
			flat.AppendRange(b, 0, b.Len())
		}
		if store.Len() != n || flat.Len() != n {
			t.Fatalf("%s: Len %d, flat %d", what, store.Len(), flat.Len())
		}

		// Layout: chunk k has room for c0·2^k rows, every chunk but the last
		// is full, and ids run through them in order.
		c0 := 1
		for c0 < min(cuts[0], n) {
			c0 *= 2
		}
		for k, ch := range store.chunks[:store.used] {
			if ch.Cap() != c0<<k || k < store.used-1 && !ch.Full() {
				t.Fatalf("%s: chunk %d has Cap %d (want %d), Full %v", what, k, ch.Cap(), c0<<k, ch.Full())
			}
		}
		var next Loc
		for id := 0; id < n; id++ {
			at := store.Loc(int32(id))
			if at != next && at != (Loc{Chunk: next.Chunk + 1}) {
				t.Fatalf("%s: row %d at %v after %v", what, id, at, next)
			}
			next = Loc{Chunk: at.Chunk, Off: at.Off + 1}
			checkSame(t, fmt.Sprintf("%s: row %d at %v", what, id, at), []Row{store.chunks[at.Chunk].Row(int(at.Off))}, []Row{flat.Row(id)})
		}

		// Every range of a random partition hashes as the flat batch does.
		for _, keys := range [][]int{{}, {0}, {sch.Len() - 1, 0}} {
			if sch.Len() == 0 {
				keys = nil
			}
			want := flat.HashColumns(keys, nil)
			for lo := 0; lo < n; {
				hi := min(n, lo+1+rng.Intn(400))
				got := store.HashRange(keys, lo, hi, make([]uint64, 3))
				if !reflect.DeepEqual(got, want[lo:hi]) {
					t.Fatalf("%s: HashRange(%v, %d, %d) differs from HashColumns", what, keys, lo, hi)
				}
				lo = hi
			}
		}
		if n == 0 {
			continue
		}

		// Random (build, probe) pairs: the same pairs survive the key check,
		// and the same rows are gathered, as over the flat batch.
		other := randSchema(rng, "o", 1+rng.Intn(3))
		probe := FromRows(other, randRows(rng, other, 1+rng.Intn(30)))
		var ids, pids []int32
		for k := rng.Intn(2000); k > 0; k-- {
			ids, pids = append(ids, int32(rng.Intn(n))), append(pids, int32(rng.Intn(probe.Len())))
		}
		at := make([]Loc, len(ids))
		for k, id := range ids {
			at[k] = store.Loc(id)
		}
		joined, want := NewBatch(sch.Concat(other), 4), NewBatch(sch.Concat(other), 4)
		joined.AppendJoinedChunked(store, every(sch), at, probe, every(other), pids)
		want.AppendJoined([]*Batch{flat, probe}, [][]int{every(sch), every(other)}, [][]int32{ids, pids}, 0, len(ids))
		checkSame(t, what+" AppendJoinedChunked", joined.Rows(), want.Rows())

		if sch.Len() == 0 {
			continue
		}
		// A selection of each side's columns, in any order, is all a store
		// keeps and all a gather reads.
		bp, pp := rng.Perm(sch.Len())[:1+rng.Intn(sch.Len())], rng.Perm(other.Len())[:rng.Intn(other.Len()+1)]
		var picked ChunkedBatch
		picked.Reset(sch.Project(bp))
		for _, b := range pieces(sch, rows, cuts...) {
			picked.Append(b, bp)
		}
		narrow := NewBatch(sch.Project(bp).Concat(other.Project(pp)), 4)
		narrow.AppendJoinedChunked(store, bp, at, probe, pp, pids)
		var pref, nref []Row
		for id := 0; id < n; id++ {
			var r Row
			for _, c := range bp {
				r = append(r, flat.Row(id)[c])
			}
			pref = append(pref, r)
		}
		for k, id := range ids {
			r := pref[id].Clone()
			for _, c := range pp {
				r = append(r, probe.Row(int(pids[k]))[c])
			}
			nref = append(nref, r)
		}
		for id := range pref {
			at := picked.Loc(int32(id))
			checkSame(t, fmt.Sprintf("%s: picked row %d", what, id), []Row{picked.chunks[at.Chunk].Row(int(at.Off))}, pref[id:id+1])
		}
		checkSame(t, what+" AppendJoinedChunked selection", narrow.Rows(), nref)
		ak, bk := []int{rng.Intn(sch.Len())}, []int{rng.Intn(other.Len())}
		var keep []int
		for k, id := range ids {
			a, b := flat.Row(int(id))[ak[0]], probe.Row(int(pids[k]))[bk[0]]
			if a.K == b.K && Equal(a, b) {
				keep = append(keep, k)
			}
		}
		m := MatchKeys(store, ak, at, probe, bk, pids)
		if m != len(keep) {
			t.Fatalf("%s: MatchKeys kept %d pairs, want %d", what, m, len(keep))
		}
		for j, k := range keep {
			if at[j] != store.Loc(ids[k]) {
				t.Fatalf("%s: kept pair %d is %v, want %v", what, j, at[j], store.Loc(ids[k]))
			}
		}
	}
}

// TestHashIndexRangeInsertMatchesBuild: an index Reset for n rows and
// filled by Insert one range at a time, the last range first, has exactly
// the buckets and chains Build gives the same hashes — over random hashes
// with many collisions, ranges of random length, and an index reused at a
// smaller size.
func TestHashIndexRangeInsertMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var ranged HashIndex
	for _, n := range []int{0, 1, 2, 3, 300, 1025, 5000, 17} {
		hashes := make([]uint64, n)
		for i := range hashes {
			hashes[i] = uint64(rng.Intn(1+n/8)) | uint64(rng.Intn(3))<<60
		}
		var built HashIndex
		built.Build(hashes)
		ranged.Reset(n)
		for hi := n; hi > 0; {
			lo := max(0, hi-1-rng.Intn(700))
			ranged.Insert(lo, hashes[lo:hi])
			hi = lo
		}
		// Equal bucket heads and next links are equal First/Next chains.
		if !reflect.DeepEqual(ranged.heads, built.heads) || !reflect.DeepEqual(ranged.next, built.next) || ranged.shift != built.shift {
			t.Fatalf("n=%d: range-inserted index differs from Build", n)
		}
	}
}
