package segcache

import (
	"testing"

	"repro/internal/segment"
	"repro/internal/tuple"
)

var memoSchema = tuple.NewSchema(
	tuple.Column{Name: "k", Kind: tuple.KindInt64},
	tuple.Column{Name: "tag", Kind: tuple.KindString},
)

// lazySeg returns a lazily decoded two-column segment of n rows.
func lazySeg(t *testing.T, i, n int) *segment.Segment {
	t.Helper()
	rows := make([]tuple.Row, n)
	for r := range rows {
		rows[r] = tuple.Row{tuple.Int(int64(r)), tuple.Str("tag")}
	}
	g := &segment.Segment{ID: oid(i), Rows: rows, NominalBytes: 1e9}
	data, err := g.EncodeFormat(memoSchema, segment.FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	lz, err := segment.DecodeLazy(memoSchema, data)
	if err != nil {
		t.Fatal(err)
	}
	return lz
}

// TestEntryKeepsDecodedColumns: Put hands back the entry's memoized copy,
// which every hit and every re-Put return too, so a column decoded through
// any of them is decoded once; the entry's decoded bytes are reported
// while it is resident and go with it on eviction and invalidation.
func TestEntryKeepsDecodedColumns(t *testing.T) {
	c := New(2e9)
	delivered := lazySeg(t, 0, 100)
	res := c.Put(oid(0), delivered)
	if res == nil || res == delivered || !res.Memoized() || delivered.Memoized() {
		t.Fatalf("Put returned %p (memoized=%v) for %p", res, res != nil && res.Memoized(), delivered)
	}
	if hit, _ := c.Get(oid(0)); hit != res {
		t.Fatal("a hit handed out another copy than Put")
	}
	if again := c.Put(oid(0), lazySeg(t, 0, 100)); again != res {
		t.Fatal("re-Put of a resident object replaced its entry")
	}
	cd, err := res.DecodeColumns(memoSchema, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cd.BytesDecoded == 0 {
		t.Fatal("first decode through the entry decoded nothing")
	}
	hit, _ := c.Get(oid(0))
	if cd, err = hit.DecodeColumns(memoSchema, []int{0}, nil); err != nil || cd.BytesDecoded != 0 || !cd.Views() {
		t.Fatalf("a hit decoded again: %d bytes, views=%v, err=%v", cd.BytesDecoded, cd.Views(), err)
	}
	if st := c.Stats(); st.BytesDecoded != 8*100 {
		t.Fatalf("BytesDecoded = %d with one 100-row int column decoded, want 800", st.BytesDecoded)
	}
	c.Put(oid(1), lazySeg(t, 1, 10))
	c.Put(oid(2), lazySeg(t, 2, 10)) // evicts 0, the LRU entry
	if st := c.Stats(); st.BytesDecoded != 0 || st.Evicted != 1 {
		t.Fatalf("decoded bytes outlived their entry: %+v", st)
	}
	one, _ := c.Get(oid(1))
	if _, err := one.DecodeColumns(memoSchema, nil, nil); err != nil {
		t.Fatal(err)
	}
	if c.Invalidate(oid(1)); c.Stats().BytesDecoded != 0 {
		t.Fatalf("decoded bytes outlived an invalidated entry: %+v", c.Stats())
	}
	if mem := seg(5, 1); c.Put(oid(5), mem) != mem {
		t.Fatal("an in-memory segment was copied on admission")
	}
}

// TestDroppedEntryReturnsItsColumnsAfterItsLease: the cache retires what
// it evicts or invalidates. An entry a reader still leases keeps its
// decoded columns until the lease ends; one nobody leases empties at once.
func TestDroppedEntryReturnsItsColumnsAfterItsLease(t *testing.T) {
	c := New(2e9)
	leased, free := c.Put(oid(0), lazySeg(t, 0, 100)), c.Put(oid(1), lazySeg(t, 1, 100))
	leased.Lease()
	for _, g := range []*segment.Segment{leased, free} {
		if _, err := g.DecodeColumns(memoSchema, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Leases != 1 {
		t.Fatalf("Leases = %d with one out, want 1", st.Leases)
	}
	c.Put(oid(2), lazySeg(t, 2, 10)) // evicts 0, the LRU entry
	c.Invalidate(oid(1))
	if leased.MemoBytes() == 0 || free.MemoBytes() != 0 {
		t.Fatalf("dropped entries: the leased one keeps %d bytes, the free one %d", leased.MemoBytes(), free.MemoBytes())
	}
	if leased.Unlease(); leased.MemoBytes() != 0 || c.Stats().Leases != 0 {
		t.Fatalf("the evicted entry kept %d bytes after its lease ended", leased.MemoBytes())
	}
}
