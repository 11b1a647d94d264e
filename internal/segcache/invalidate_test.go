package segcache

import "testing"

// Invalidating an entry removes it immediately and reclaims its budget
// share.
func TestInvalidateUnpinned(t *testing.T) {
	c := New(3)
	c.Put(oid(1), seg(1, 1))
	c.Put(oid(2), seg(2, 1))
	if !c.Invalidate(oid(1)) {
		t.Fatalf("resident entry not invalidated")
	}
	if _, ok := c.Get(oid(1)); ok {
		t.Fatalf("invalidated entry still served")
	}
	if c.Contains(oid(1)) {
		t.Fatalf("invalidated entry still resident")
	}
	st := c.Stats()
	if st.Invalidated != 1 {
		t.Fatalf("Invalidated = %d, want 1", st.Invalidated)
	}
	if st.BytesCached != 1 || st.Entries != 1 {
		t.Fatalf("budget not reclaimed: %+v", st)
	}
	// The freed space is usable again.
	if c.Put(oid(3), seg(3, 2)) == nil {
		t.Fatalf("freed space not admitting")
	}
}

// Invalidating a missing entry reports false.
func TestInvalidateMissing(t *testing.T) {
	c := New(2)
	if c.Invalidate(oid(9)) {
		t.Fatalf("missing entry reported invalidated")
	}
	if st := c.Stats(); st.Invalidated != 0 {
		t.Fatalf("Invalidated = %d, want 0", st.Invalidated)
	}
}

// Invalidation is not eviction: the byte counters stay distinct.
func TestInvalidateNotCountedAsEviction(t *testing.T) {
	c := New(1)
	c.Put(oid(1), seg(1, 1))
	c.Invalidate(oid(1))
	st := c.Stats()
	if st.Evicted != 0 || st.BytesEvicted != 0 {
		t.Fatalf("invalidation charged to eviction: %+v", st)
	}
}
