package segment

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/tuple"
)

// lazyWide returns a lazily decoded wide segment of n rows.
func lazyWide(t *testing.T, n int) *Segment {
	t.Helper()
	data, err := wideSegment(n).EncodeFormat(wideSchema, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecodeLazy(wideSchema, data)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// blockBytes sums the encoded block lengths of the given columns.
func blockBytes(g *Segment, cols ...int) int64 {
	var n int64
	for _, ci := range cols {
		n += int64(g.Directory()[ci].BlockLen)
	}
	return n
}

// TestMemoDecodesEachColumnOnce: through a memoized segment a column is
// decoded by the first reader that projects it and handed to every later
// reader as the same vector, counting no bytes decoded; skipped bytes are
// accounted as before, and the memo's size is what it decoded.
func TestMemoDecodesEachColumnOnce(t *testing.T) {
	plain := lazyWide(t, 300)
	g := plain.Memoize()
	if !g.Memoized() || plain.Memoized() || g.NumRows() != 300 {
		t.Fatalf("Memoize: memoized=%v original memoized=%v rows=%d", g.Memoized(), plain.Memoized(), g.NumRows())
	}
	want, err := plain.DecodeColumns(wideSchema, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, err := g.DecodeColumns(wideSchema, []int{0, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Views() || first.BytesDecoded != blockBytes(g, 0, 4) || first.BytesMaterialized == 0 {
		t.Fatalf("first fill: views=%v decoded=%d (want %d) materialized=%d", first.Views(), first.BytesDecoded, blockBytes(g, 0, 4), first.BytesMaterialized)
	}
	if got := g.MemoBytes(); got != first.BytesMaterialized {
		t.Fatalf("MemoBytes %d after the first fill, want %d", got, first.BytesMaterialized)
	}
	again, err := g.DecodeColumns(wideSchema, []int{0, 4, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.BytesDecoded != blockBytes(g, 5) {
		t.Fatalf("second reader decoded %d bytes, want only column 5's %d", again.BytesDecoded, blockBytes(g, 5))
	}
	if again.BytesSkipped != blockBytes(g, 1, 2, 3, 6, 7) {
		t.Fatalf("second reader skipped %d bytes, want %d", again.BytesSkipped, blockBytes(g, 1, 2, 3, 6, 7))
	}
	if &again.Cols[0].I[0] != &first.Cols[0].I[0] || &again.Cols[4].S[0] != &first.Cols[4].S[0] {
		t.Fatal("a memoized column was decoded twice")
	}
	for _, ci := range []int{0, 4, 5} {
		if !reflect.DeepEqual(again.Cols[ci], want.Cols[ci]) {
			t.Fatalf("column %d differs from a plain decode", ci)
		}
	}
	rows, err := g.Materialize(wideSchema)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, wideSegment(300).Rows) {
		t.Fatal("Materialize through the memo differs from the rows encoded")
	}
	if mem := wideSegment(3); mem.Memoize() != mem {
		t.Fatal("an in-memory segment was copied: it has nothing to memoize")
	}
}

// TestDecodeNeverWritesIntoViews: a ColumnData that last held a memo's
// views, reused for a plain segment's decode, gets buffers of its own — the
// memo's vectors keep their cells.
func TestDecodeNeverWritesIntoViews(t *testing.T) {
	g := lazyWide(t, 200).Memoize()
	other := lazyWide(t, 200)
	cd, err := g.DecodeColumns(wideSchema, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([]tuple.Vector, len(cd.Cols))
	for ci, v := range cd.Cols {
		snapshot[ci] = tuple.Vector{I: append([]int64(nil), v.I...), F: append([]float64(nil), v.F...), S: append([]string(nil), v.S...)}
	}
	if cd, err = other.DecodeColumns(wideSchema, nil, cd); err != nil {
		t.Fatal(err)
	}
	if cd.Views() || cd.BytesDecoded != blockBytes(other, 0, 1, 2, 3, 4, 5, 6, 7) {
		t.Fatalf("plain decode after views: views=%v decoded=%d", cd.Views(), cd.BytesDecoded)
	}
	cd.Cols[0].I[0]++ // the plain decode's buffers are the caller's to write
	back, err := g.DecodeColumns(wideSchema, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.BytesDecoded != 0 {
		t.Fatalf("memo lost its columns: %d bytes decoded again", back.BytesDecoded)
	}
	for ci := range back.Cols {
		v, s := back.Cols[ci], snapshot[ci]
		if !reflect.DeepEqual(append([]int64(nil), v.I...), s.I) || !reflect.DeepEqual(append([]float64(nil), v.F...), s.F) ||
			!reflect.DeepEqual(append([]string(nil), v.S...), s.S) {
			t.Fatalf("column %d of the memo changed under a plain decode", ci)
		}
	}
}

// TestMemoConcurrentReaders: readers racing on one memoized segment decode
// each column once between them and all see the same cells. Run with -race.
func TestMemoConcurrentReaders(t *testing.T) {
	g := lazyWide(t, 400).Memoize()
	const readers = 8
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		decoded int64
		views   [readers]*ColumnData
		errs    [readers]error
	)
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cd, err := g.DecodeColumns(wideSchema, []int{1, 3, 5}, nil)
			views[r], errs[r] = cd, err
			if err == nil {
				mu.Lock()
				decoded += cd.BytesDecoded
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for r := range readers {
		if errs[r] != nil {
			t.Fatal(errs[r])
		}
		if !reflect.DeepEqual(views[r].Cols, views[0].Cols) {
			t.Fatalf("reader %d saw different cells", r)
		}
	}
	if want := blockBytes(g, 1, 3, 5); decoded != want {
		t.Fatalf("readers decoded %d bytes between them, want one decode's %d", decoded, want)
	}
}

// TestCorruptedCopyDropsMemo: the fault injector's corrupted copy of a
// memoized segment keeps none of its decoded columns — it fails its
// checksum and decodes, if at all, from its own flipped bytes.
func TestCorruptedCopyDropsMemo(t *testing.T) {
	g := lazyWide(t, 100).Memoize()
	if _, err := g.DecodeColumns(wideSchema, nil, nil); err != nil {
		t.Fatal(err)
	}
	bad := g.CorruptedCopy()
	if bad.Memoized() || bad.MemoBytes() != 0 {
		t.Fatalf("corrupted copy kept the memo: memoized=%v bytes=%d", bad.Memoized(), bad.MemoBytes())
	}
	if err := bad.VerifyChecksum(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyChecksum on the corrupted copy = %v, want ErrCorrupt", err)
	}
	cd, err := bad.DecodeColumns(wideSchema, nil, nil)
	if err == nil && (cd.Views() || cd.BytesDecoded == 0) {
		t.Fatalf("corrupted copy served columns it did not decode: views=%v decoded=%d", cd.Views(), cd.BytesDecoded)
	}
	if g.VerifyChecksum() != nil {
		t.Fatal("the original lost its integrity")
	}
}

// TestRetiredMemoWaitsForItsLeases: a retired memo keeps its vectors, and
// their cells, while a lease is out; the last Unlease hands them to the
// pool, and a later reader fills the memo again with what a plain decode
// returns. A memo retired with no lease out empties at once, and a lease
// that was never taken cannot be returned.
func TestRetiredMemoWaitsForItsLeases(t *testing.T) {
	plain := lazyWide(t, 300)
	want, err := plain.DecodeColumns(wideSchema, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := plain.Memoize()
	if plain.Lease() || !g.Lease() || !g.Lease() || g.Leases() != 2 {
		t.Fatalf("leases: plain leased, or %d out on the memo after two", g.Leases())
	}
	held, err := g.DecodeColumns(wideSchema, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	filled := g.MemoBytes()
	g.Retire()
	g.Unlease()
	if g.MemoBytes() != filled || !reflect.DeepEqual(held.Cols, want.Cols) {
		t.Fatal("a retired memo gave its vectors back with a lease still out")
	}
	g.Unlease()
	if g.MemoBytes() != 0 || g.Leases() != 0 {
		t.Fatalf("the last lease out left %d bytes in a retired memo", g.MemoBytes())
	}
	again, err := g.DecodeColumns(wideSchema, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.BytesDecoded != blockBytes(g, 0, 1, 2, 3, 4, 5, 6, 7) || !reflect.DeepEqual(again.Cols, want.Cols) {
		t.Fatalf("a reader after the recycle decoded %d bytes, or other cells", again.BytesDecoded)
	}
	now := lazyWide(t, 50).Memoize()
	if _, err := now.DecodeColumns(wideSchema, []int{0}, nil); err != nil {
		t.Fatal(err)
	}
	if now.Retire(); now.MemoBytes() != 0 {
		t.Fatal("a memo retired with no lease out kept its vectors")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Unlease without a lease out did not panic")
		}
	}()
	now.Unlease()
}
