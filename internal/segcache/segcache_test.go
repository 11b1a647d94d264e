package segcache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/segment"
)

func oid(i int) segment.ObjectID {
	return segment.ObjectID{Tenant: 0, Table: "t", Index: i}
}

func seg(i int, bytes int64) *segment.Segment {
	return &segment.Segment{ID: oid(i), NominalBytes: bytes}
}

func TestHitMissAndLRUOrder(t *testing.T) {
	c := New(3e9)
	for i := 0; i < 3; i++ {
		if c.Put(oid(i), seg(i, 1e9)) == nil {
			t.Fatalf("put %d rejected", i)
		}
	}
	if _, ok := c.Get(oid(0)); !ok {
		t.Fatal("expected hit on 0")
	}
	// 1 is now the LRU entry; inserting 3 must evict it, not 0.
	c.Put(oid(3), seg(3, 1e9))
	if _, ok := c.Get(oid(1)); ok {
		t.Fatal("1 should have been evicted")
	}
	if _, ok := c.Get(oid(0)); !ok {
		t.Fatal("0 should have survived (recently used)")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Evicted != 1 || st.Inserted != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesCached != 3e9 || st.Entries != 3 {
		t.Fatalf("contents = %+v", st)
	}
}

func TestPutOversizedRejected(t *testing.T) {
	c := New(1e9)
	if c.Put(oid(0), seg(0, 2e9)) != nil {
		t.Fatal("oversized put admitted")
	}
	if st := c.Stats(); st.Rejected != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRejectionDoesNotFlush(t *testing.T) {
	c := New(3e9)
	c.Put(oid(0), seg(0, 1e9))
	c.Put(oid(1), seg(1, 1e9))
	if c.Put(oid(2), seg(2, 4e9)) != nil {
		t.Fatal("over-budget put admitted")
	}
	// The hopeless insert must not have evicted anything on its way out.
	if st := c.Stats(); st.Entries != 2 || st.Evicted != 0 {
		t.Fatalf("stats after rejected put = %+v", st)
	}
}

func TestRePutRefreshesRecency(t *testing.T) {
	c := New(2e9)
	c.Put(oid(0), seg(0, 1e9))
	c.Put(oid(1), seg(1, 1e9))
	c.Put(oid(0), seg(0, 1e9)) // touch, not duplicate
	c.Put(oid(2), seg(2, 1e9)) // must evict 1, the LRU entry
	if _, ok := c.Get(oid(1)); ok {
		t.Fatal("1 should have been evicted")
	}
	if st := c.Stats(); st.Inserted != 3 {
		t.Fatalf("re-put counted as insert: %+v", st)
	}
}

func TestZeroSizedSegmentsOccupySpace(t *testing.T) {
	c := New(2)
	c.Put(oid(0), seg(0, 0))
	c.Put(oid(1), seg(1, 0))
	c.Put(oid(2), seg(2, 0))
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("zero-sized entries not clamped: %+v", st)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(8e9)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := oid((w*31 + i) % 16)
				if _, ok := c.Get(id); !ok {
					c.Put(id, &segment.Segment{ID: id, NominalBytes: 1e9})
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.BytesCached > 8e9 {
		t.Fatalf("budget exceeded: %+v", st)
	}
	if st.Entries > 8 {
		t.Fatalf("too many entries for budget: %+v", st)
	}
}

func TestStatsString(t *testing.T) {
	// Smoke: stats are plain data, printable with %+v in reports.
	c := New(1e9)
	c.Put(oid(0), seg(0, 1e9))
	if s := fmt.Sprintf("%+v", c.Stats()); s == "" {
		t.Fatal("empty stats rendering")
	}
}
