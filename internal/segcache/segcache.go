// Package segcache implements a byte-budgeted, concurrency-safe shared
// segment cache: a reuse layer between the database clients and the Cold
// Storage Device. The paper's device policies cannot merge requests
// across queries (§4.4) and MJoin's reissue regime re-fetches evicted
// objects from cold storage at full cost (§5.2.4); a cache at the client
// proxy turns both into local hits. One Cache instance can be private to
// a tenant or shared by every client of a skipper.Cluster — segments are
// immutable once written, so sharing is safe by construction.
//
// Eviction is LRU. A segment larger than the whole budget is rejected
// (and counted) rather than flushing the cache on its way out. Entries
// are sized by their nominal (paper-scale, 1 GB) object size, so budgets
// are expressible in objects/GB exactly like the MJoin cache capacity.
//
// An entry keeps the columns decoded from it (segment.Memoize): each is
// decoded by the first reader that projects it, and every later reader, of
// any query or tenant, is handed the same vectors as read-only views. The
// decoded bytes stay with the entry, so they are bounded by the budget in
// objects times a decoded object's size; they are reported
// (Stats.BytesDecoded), not charged against the nominal budget. A reader
// leases what Get and Put hand it for as long as it may hold views
// (segment.Segment.Lease), and the cache retires what it drops
// (segment.Segment.Retire): an evicted or invalidated entry's decoded
// vectors go back to the working-memory pool when its last lease ends.
package segcache

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/segment"
)

// Stats counts what the cache did since creation. Snapshot via
// Cache.Stats; all counters are monotone except Entries, BytesCached and
// BytesDecoded.
type Stats struct {
	// Hits / Misses count Get outcomes.
	Hits, Misses int64
	// BytesHit sums the nominal sizes of hit segments — bytes that did
	// not travel from the device.
	BytesHit int64
	// Inserted / Evicted / Rejected count Put outcomes: admissions, LRU
	// victims dropped for space, and inserts refused because the segment
	// alone exceeds the budget.
	Inserted, Evicted, Rejected int64
	// Invalidated counts entries dropped through Invalidate — the corrupt
	// quarantine path.
	Invalidated int64
	// BytesEvicted sums the nominal sizes of evicted entries.
	BytesEvicted int64
	// Entries / BytesCached describe the current contents.
	Entries     int
	BytesCached int64
	// BytesDecoded is the logical size of the columns the resident entries
	// keep decoded (segment.Segment.MemoBytes).
	BytesDecoded int64
	// Leases counts the leases out on resident entries: readers that may
	// still hold views of their columns. 0 whenever no reader runs.
	Leases int
	// Budget echoes the configured capacity in bytes.
	Budget int64
}

// entry is one cached segment.
type entry struct {
	id segment.ObjectID
	// seg is the memoized copy of the admitted segment that every hit
	// hands out.
	seg  *segment.Segment
	size int64
	elem *list.Element
}

// Cache is the shared segment cache. Create with New; the zero value is
// not usable. All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[segment.ObjectID]*entry
	lru     *list.List // front = most recently used
	stats   Stats
}

// New returns a cache with the given byte budget. A non-positive budget
// panics: a disabled cache is expressed by not constructing one.
func New(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		panic(fmt.Sprintf("segcache: non-positive budget %d", budgetBytes))
	}
	return &Cache{
		budget:  budgetBytes,
		entries: make(map[segment.ObjectID]*entry),
		lru:     list.New(),
	}
}

// NewObjects returns a cache budgeted for n nominal 1 GB objects — the
// unit the paper (and the MJoin cache capacity) uses.
func NewObjects(n int) *Cache { return New(int64(n) * 1e9) }

// size returns the budget charge for a segment: its nominal size,
// clamped to at least one byte so zero-sized test segments still occupy
// the cache.
func size(seg *segment.Segment) int64 {
	if seg.NominalBytes > 0 {
		return seg.NominalBytes
	}
	return 1
}

// Get returns the cached segment and marks it most recently used.
func (c *Cache) Get(id segment.ObjectID) (*segment.Segment, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.stats.Hits++
	c.stats.BytesHit += e.size
	c.lru.MoveToFront(e.elem)
	return e.seg, true
}

// Contains reports residency without touching recency or hit/miss
// accounting — the EXPLAIN peek.
func (c *Cache) Contains(id segment.ObjectID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[id]
	return ok
}

// Put admits the segment, evicting least-recently-used entries until it
// fits, and returns the resident copy, which keeps the columns decoded
// from it: the caller reads that copy in place of seg, so its own decode
// fills the entry. Re-putting a resident object only refreshes recency and
// returns the resident copy. Returns nil when admission was rejected: the
// segment alone exceeds the budget.
func (c *Cache) Put(id segment.ObjectID, seg *segment.Segment) *segment.Segment {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[id]; ok {
		c.lru.MoveToFront(e.elem)
		return e.seg
	}
	sz := size(seg)
	if !c.makeRoom(sz) {
		c.stats.Rejected++
		return nil
	}
	e := &entry{id: id, seg: seg.Memoize(), size: sz}
	e.elem = c.lru.PushFront(e)
	c.entries[id] = e
	c.used += sz
	c.stats.Inserted++
	return e.seg
}

// makeRoom evicts LRU entries until sz fits in the budget, reporting
// whether it can. A segment larger than the whole budget evicts nothing:
// a hopeless insert does not flush the cache on its way out.
func (c *Cache) makeRoom(sz int64) bool {
	if sz > c.budget {
		return false
	}
	for c.used+sz > c.budget {
		victim := c.lru.Back().Value.(*entry)
		c.removeLocked(victim)
		c.stats.Evicted++
		c.stats.BytesEvicted += victim.size
	}
	return true
}

// removeLocked drops an entry and retires its segment. Caller holds c.mu
// and accounts the drop (eviction vs invalidation) itself.
func (c *Cache) removeLocked(e *entry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.id)
	c.used -= e.size
	e.seg.Retire()
}

// Invalidate drops the cached entry for id — the quarantine hook for
// segments that failed their checksum. Readers already holding the
// segment pointer are unaffected while their leases last. Returns whether
// an entry was resident.
func (c *Cache) Invalidate(id segment.ObjectID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return false
	}
	c.removeLocked(e)
	c.stats.Invalidated++
	return true
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.entries)
	st.BytesCached = c.used
	st.Budget = c.budget
	for _, e := range c.entries {
		st.BytesDecoded += e.seg.MemoBytes()
		st.Leases += e.seg.Leases()
	}
	return st
}
