package mjoin

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/engine"
	"repro/internal/segment"
	"repro/internal/trace"
	"repro/internal/tuple"
)

// Source supplies objects out of order. The production implementation is
// the client proxy over the CSD, which also charges the virtual processing
// time of each arrival the stream will decode; tests script arbitrary
// arrival orders.
type Source interface {
	// Request issues GETs for the given objects. The state manager calls
	// it once per cycle with every object still needed; objs is valid only
	// during the call (the state manager reuses it).
	Request(objs []segment.ObjectID)
	// NextArrival blocks until one requested object arrives (the source
	// delivers exactly one arrival per requested object per cycle) or the
	// storage layer fails the request, in which case it returns the
	// storage error and execution aborts.
	NextArrival() (*segment.Segment, error)
}

// CacheTooSmallError reports an impossible fit detected before the first
// request cycle: the cache budget cannot hold one object per relation,
// so the widest subplan could never have all its inputs resident and the
// reissue loop would spin to Config.MaxCycles without ever executing it.
type CacheTooSmallError struct {
	// CacheSize is the configured budget in objects.
	CacheSize int
	// Widest is the width of the widest subplan — one object per
	// relation of the query.
	Widest int
}

func (e *CacheTooSmallError) Error() string {
	return fmt.Sprintf("mjoin: cache of %d objects cannot hold the widest subplan (%d objects, one per relation)",
		e.CacheSize, e.Widest)
}

// Config controls one MJoin execution.
type Config struct {
	// CacheSize is the buffer capacity in objects; it must be at least
	// the number of relations or no subplan could ever run.
	CacheSize int
	// Policy picks eviction victims (nil = MaxProgress, the policy every
	// run uses; the package's tests hold the paper's rejected ones to it).
	Policy EvictionPolicy
	// Pruning marks subplans containing a result-free object as executed
	// and never refetches the object (§5.2.4). Default on.
	Pruning bool
	// StatsPruning enables data skipping from catalog statistics: before
	// the first request cycle, every segment a relation's Pruner proves
	// result-free is retired together with its subplans, so the object
	// is never requested at all — the static counterpart of the runtime
	// pruning above. Results are byte-identical either way.
	StatsPruning bool
	// MaxCycles bounds request-reissue cycles as a livelock guard.
	MaxCycles int
	// Trace, when non-nil, receives per-cycle and per-arrival-decode
	// spans. Spans carry wall time only: the manager cannot see virtual
	// time (the Source charges it). nil records nothing.
	Trace *trace.QueryTrace
}

// DefaultConfig returns a Config with the paper's defaults for the given
// cache size.
func DefaultConfig(cacheSize int) Config {
	return Config{
		CacheSize:    cacheSize,
		Policy:       MaxProgress{},
		Pruning:      true,
		StatsPruning: true,
		MaxCycles:    1 << 20,
	}
}

// Stats reports what one execution did.
type Stats struct {
	Requests         int // GETs issued, including reissues (Fig 11b/c)
	Cycles           int // request/arrival cycles
	Arrivals         int // objects received
	Evictions        int // cache victims dropped under pressure
	SubplansTotal    int // subplans enumerated for the query
	SubplansExecuted int // subplans actually probed
	SubplansPruned   int // subplans skipped via result-free objects
	ObjectsSkipped   int // objects never requested: zone-map/Bloom data skipping
	SubplansSkipped  int // subplans retired by data skipping before any request
	ResultRows       int // join output cardinality
	// Byte accounting over lazily decoded arrivals (zero for in-memory
	// sources). Re-arrivals of reissued objects decode again and count
	// again — rescans are real work.
	BytesFetched             int64 // encoded size of scanned arrivals
	BytesDecoded             int64 // encoded block bytes decoded
	BytesSkippedByProjection int64 // block bytes skipped via Relation.Cols
	BytesMaterialized        int64 // logical bytes of decoded values
	// PinnedCycles counts cycles that ran with a designated subplan
	// pinned — i.e. how often the livelock escape hatch was needed.
	// Zero on the paper's workloads and delivery orders.
	PinnedCycles int
	// Pipe is the host-side decode accounting: real time spent decoding
	// arrivals, and how many were decoded.
	Pipe engine.PipeStats
}

// Result bundles the join output with execution statistics.
type Result struct {
	// Schema describes the output rows: the relations' leg schemas,
	// concatenated and restricted to Query.Out.
	Schema *tuple.Schema
	// Rows is the join output: deterministic, row order included, given the
	// arrival order.
	Rows []tuple.Row
	// Stats reports what the execution did.
	Stats Stats
}

// Stream is one MJoin execution (Algorithm 1), the state manager itself, as
// an engine.Iterator that runs once. Closed early, it still runs the whole
// join, so a run's GETs and arrivals never depend on how much of its output
// was read.
//
// Its bookkeeping is dense arrays, sized once. Subplan i picks segment
// i/stride[r]%dims[r] of relation r: a mixed-radix number with relation 0
// as its most significant digit, so ascending i is the lexicographic order
// of the segment combinations. Object number off[r]+s is segment s of
// relation r, and the per-object state is indexed by that number.
type Stream struct {
	q     *Query
	cfg   Config
	src   Source
	probe *probePlan

	// ints is the slab the int arrays below are carved from.
	ints []int
	// dims[r] is relation r's segment count, stride[r] the weight of its
	// digit in a subplan number, off[r] the number of its first object.
	// pending holds bit i while subplan i is neither executed nor pruned;
	// left counts the bits.
	dims, stride, off []int
	pending           []uint64
	left              int
	// Per object: its ID, the pending subplans that include it, its latest
	// arrival's sequence number, the executable subplans that include it
	// (tallied by the first ExecutableCount of an eviction decision, which
	// admits object arriving), whether it is pinned, and its cache entry —
	// batch nil when it is not cached. cacheOrder lists the cached objects,
	// oldest arrival first; seq counts the arrivals admitted.
	ids                            []segment.ObjectID
	pendingCount, arrivalSeq, exec []int
	pinned                         []bool
	slots                          []cacheEntry
	cacheOrder                     []int
	seq, arriving                  int
	tallied                        bool
	// A walk's per-relation segment lists (relation r's are
	// pick[at[r]:at[r+1]]), its odometer over them and the subplans it
	// found; cands and need are an eviction decision's candidates and the
	// objects a cycle requests. All are reused.
	pick, at, digit, found []int
	cands, need            []segment.ObjectID

	// legScratch[r] is relation r's decode buffer and filter scratch: a
	// filtered arrival's cache entry copies the survivors out of the buffer,
	// an unfiltered one takes its vectors, and the next decode draws new
	// ones from the working-memory pool.
	legScratch []engine.LegScratch
	// scratch is the probe chain's, reused across arrivals and subplans.
	scratch probeScratch
	// hashBuf is the reused key-hash buffer of the cache-entry build.
	hashBuf []uint64
	// entries and srcs are executeSubplan's reused views of the subplan
	// being run: its cache entries and their batches, by relation.
	entries []*cacheEntry
	srcs    []*tuple.Batch
	// onSubplan, when set, sees the cache entries of every subplan about
	// to run. Production code never sets it: the differential tests check
	// the probe chain against a row-at-a-time reference through it.
	onSubplan func(entries []*cacheEntry)

	stats Stats
	// out queues the output chunks not handed out yet, oldest first; emit
	// fills the last one. handed is the chunk handed out last, released on
	// the next NextBatch or Close; chunkCap is the last chunk's capacity.
	out      []*tuple.Batch
	handed   *tuple.Batch
	chunkCap int

	// arrivals counts the arrivals the open cycle still expects, progress
	// the subplans executed or pruned when it opened, cycleSpan is its trace
	// span. done is set when the run has ended, err when it failed.
	arrivals, progress, cycleSpan int
	done                          bool
	err                           error
}

// Run executes the query to completion against the source and
// materializes the output as rows — the row boundary for callers that count
// or compare rows. It drains the Stream NewStream returns; a caller that
// goes on to process the output batch-at-a-time pulls the Stream itself.
func Run(q *Query, cfg Config, src Source) (*Result, error) {
	m, err := NewStream(q, cfg, src)
	if err != nil {
		return nil, err
	}
	rows, err := engine.Collect(m)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: m.probe.out, Rows: rows, Stats: m.stats}, nil
}

// NewStream validates the query and configuration and builds the execution
// state up to, not including, the first request cycle: nothing is asked of
// the source before the first NextBatch or Close.
func NewStream(q *Query, cfg Config, src Source) (*Stream, error) {
	m := new(Stream)
	if err := m.Reset(q, cfg, src); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset makes m a new run of the query over the source, as NewStream
// would build it, reusing m's arrays where they are large enough. m must
// be new, ended (its Close returned) or never read; an error leaves it as
// it was.
func (m *Stream) Reset(q *Query, cfg Config, src Source) error {
	probe, err := q.compiled()
	if err != nil {
		return err
	}
	if probe.unrunnable != nil {
		return probe.unrunnable
	}
	size := probe.subplans
	if cfg.CacheSize < len(q.Relations) {
		return &CacheTooSmallError{CacheSize: cfg.CacheSize, Widest: len(q.Relations)}
	}
	if cfg.Policy == nil {
		cfg.Policy = MaxProgress{}
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 1 << 20
	}
	n, objects := len(q.Relations), 0
	for _, rel := range q.Relations {
		objects += len(rel.Table.Objects)
	}
	old := *m
	*m = Stream{q: q, cfg: cfg, src: src, probe: probe, arriving: -1,
		found: old.found[:0], entries: clearAll(old.entries), srcs: clearAll(old.srcs), out: clearAll(old.out),
		scratch: old.scratch}
	// One slab backs the per-relation and per-object int arrays.
	ints := reuse(old.ints, 5*n+2+5*objects)
	m.ints = ints
	m.dims, m.stride, m.digit, ints = ints[:n], ints[n:2*n], ints[2*n:3*n], ints[3*n:]
	m.off, m.at, ints = ints[:n+1], ints[n+1:2*n+2], ints[2*n+2:]
	m.pendingCount, m.arrivalSeq, m.exec = ints[:objects], ints[objects:2*objects], ints[2*objects:3*objects]
	m.pick, m.cacheOrder = ints[3*objects:3*objects:4*objects], ints[4*objects:4*objects]
	m.pinned, m.slots = reuse(old.pinned, objects), reuse(old.slots, objects)
	ids := reuse(old.ids, 2*objects+min(cfg.CacheSize, objects))[:0]
	for _, rel := range q.Relations {
		ids = append(ids, rel.Table.Objects...)
	}
	// ids keeps the slab's capacity, which the next Reset reuses.
	m.ids, m.need, m.cands = ids[:objects], ids[objects:objects:2*objects], ids[2*objects:2*objects]
	m.legScratch = reuse(old.legScratch, n)
	m.off[n] = objects
	for r, stride := n-1, 1; r >= 0; r-- {
		d := len(q.Relations[r].Table.Objects)
		m.dims[r], m.stride[r], m.off[r] = d, stride, m.off[r+1]-d
		for o := m.off[r]; o < m.off[r+1]; o++ {
			m.pendingCount[o] = size / d
		}
		stride *= d
	}
	m.pending, m.left, m.stats.SubplansTotal = reuse(old.pending, (size+63)/64), size, size
	for w := range m.pending {
		m.pending[w] = ^uint64(0) >> max(0, 64*(w+1)-size)
	}
	if cfg.StatsPruning {
		m.skipByStats()
	}
	return nil
}

// reuse returns s cleared and resliced to n elements when its capacity
// allows, else a new slice of n.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// clearAll returns s emptied, its whole backing array cleared so that
// nothing a past run held stays reachable through it.
func clearAll[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// Schema implements engine.Iterator: the output schema Query.Validate returns.
func (m *Stream) Schema() *tuple.Schema { return m.probe.out }

// Open implements engine.Iterator. The run starts on the first NextBatch.
func (m *Stream) Open() error { return nil }

// Stats reports what the run has done so far.
func (m *Stream) Stats() Stats { return m.stats }

// NextBatch implements engine.Iterator: it steps the run until the oldest
// queued chunk is full, or the run has ended, and hands that chunk out. A
// failure ends the run and is returned from then on.
func (m *Stream) NextBatch() (*tuple.Batch, bool, error) {
	m.handed.Release()
	m.handed = nil
	for m.err == nil {
		if k := len(m.out); k > 1 || k == 1 && (m.done || m.out[0].Full()) {
			m.handed = m.out[0]
			m.out = append(m.out[:0], m.out[1:]...)
			return m.handed, true, nil
		}
		if m.done {
			return nil, false, nil
		}
		m.step()
	}
	return nil, false, m.err
}

// Close implements engine.Iterator. A stream closed before its end runs the
// remaining cycles, making every GET and arrival a full drain would
// have, discards their output and returns the error that stopped them, if
// any, releasing every output chunk. After a failure it asks nothing more
// of the source.
func (m *Stream) Close() error {
	for {
		for _, b := range m.out {
			b.Release()
		}
		m.handed.Release()
		if m.out, m.handed = m.out[:0], nil; m.done {
			return m.err
		}
		m.step()
	}
}

// step advances the run by one arrival, or by opening a request cycle (and
// closing it again when everything left to run is cached), and records the
// end of the run in done and err.
func (m *Stream) step() {
	if m.arrivals > 0 {
		seg, err := m.src.NextArrival()
		if err == nil {
			err = m.processArrival(seg)
		} else {
			err = fmt.Errorf("mjoin: arrival: %w", err)
		}
		if err != nil {
			m.cfg.Trace.End(m.cycleSpan)
			m.finish(err)
			return
		}
		if m.arrivals--; m.arrivals == 0 {
			if m.stats.SubplansExecuted+m.stats.SubplansPruned == m.progress {
				m.pinDesignatedSubplan()
			} else {
				clear(m.pinned)
			}
			m.cfg.Trace.End(m.cycleSpan)
		}
		return
	}
	if m.left == 0 {
		m.finish(nil)
		return
	}
	if m.stats.Cycles >= m.cfg.MaxCycles {
		m.finish(fmt.Errorf("mjoin: no progress after %d cycles (%d subplans stuck)", m.stats.Cycles, m.left))
		return
	}
	m.stats.Cycles++
	if m.cfg.Trace.Enabled() {
		m.cycleSpan = m.cfg.Trace.Begin(trace.CatCycle, fmt.Sprintf("cycle %d", m.stats.Cycles))
	}
	toFetch := m.neededObjects()
	if len(toFetch) == 0 {
		// Everything needed is cached; finish the runnable work.
		m.executeRunnable(-1)
		m.cfg.Trace.End(m.cycleSpan)
		if m.finish(nil); m.left > 0 {
			m.err = fmt.Errorf("mjoin: %d subplans pending with all objects cached", m.left)
		}
		return
	}
	m.src.Request(toFetch)
	m.stats.Requests += len(toFetch)
	if slices.Contains(m.pinned, true) {
		m.stats.PinnedCycles++
	}
	m.arrivals = len(toFetch)
	m.progress = m.stats.SubplansExecuted + m.stats.SubplansPruned
}

// finish ends the run, failed when err is non-nil, and hands the cache,
// the decode buffers, the probe chain's and their scratch back to the
// working-memory pool. The probe chain's outer arrays stay with the
// Stream, emptied, for its next run.
func (m *Stream) finish(err error) {
	m.done, m.err = true, err
	for _, o := range m.cacheOrder {
		m.slots[o].release()
	}
	for r := range m.legScratch {
		m.legScratch[r].Release()
	}
	for r := range m.scratch.cur {
		tuple.Release(m.scratch.cur[r])
		tuple.Release(m.scratch.next[r])
	}
	clear(m.scratch.cur)
	clear(m.scratch.next)
	tuple.Release(m.hashBuf)
	m.cacheOrder, m.hashBuf = m.cacheOrder[:0], nil
}

// skipByStats retires, before the first request cycle, every subplan
// containing a segment its relation's Pruner proves result-free — the
// data-skipping counterpart of runtime subplan pruning (§5.2.4), with
// zone maps and Bloom filters standing in for fetching the object. The
// skipped objects never enter neededObjects, so no GET for them is ever
// enqueued at the CSD.
func (m *Stream) skipByStats() {
	for r, rel := range m.q.Relations {
		for s := range m.dims[r] {
			if rel.Pruner != nil && rel.Pruner.CanSkip(s) {
				m.stats.ObjectsSkipped++
				m.stats.SubplansSkipped += m.retire(m.off[r] + s)
			}
		}
	}
}

// pinDesignatedSubplan selects the lowest pending subplan — a cycle that
// executed nothing left some — and pins its objects so the next cycle is
// guaranteed to execute it (progress guarantee; see admitArrival).
func (m *Stream) pinDesignatedSubplan() {
	w := slices.IndexFunc(m.pending, func(word uint64) bool { return word != 0 })
	i := 64*w + bits.TrailingZeros64(m.pending[w])
	for r := range m.dims {
		m.pinned[m.object(i, r)] = true
	}
}

// neededObjects returns, in relation-then-segment order, every uncached
// object that some pending subplan requires. The list is reused by the
// next cycle.
func (m *Stream) neededObjects() []segment.ObjectID {
	need := m.need[:0]
	for o, id := range m.ids {
		if m.pendingCount[o] > 0 && m.slots[o].batch == nil {
			need = append(need, id)
		}
	}
	m.need = need
	return need
}

// admitArrival folds one decoded arrival, object o of relation rel, into
// the cache — pruning empty objects, evicting under pressure — and runs the
// subplans it makes runnable.
//
// After a cycle that executed nothing, the objects of one designated
// subplan are pinned: they cannot be evicted and are cached on arrival,
// guaranteeing the designated subplan runs in the next cycle. This closes a
// livelock the paper's greedy heuristics leave open under adversarial
// arrival orders: with a cache of exactly R objects, an unlucky delivery
// order can evict every partially-assembled combination forever.
func (m *Stream) admitArrival(o, rel int, batch *tuple.Batch) {
	if m.slots[o].batch != nil {
		// Redelivery of a resident object — a fault-recovery re-request
		// racing a coalesced transfer can hand the proxy the same object
		// twice. Admitting it again would append a duplicate cacheOrder
		// slot and corrupt eviction; just (re)run whatever it unblocks.
		batch.Release()
		m.executeRunnable(o)
		return
	}
	if m.cfg.Pruning && batch.Len() == 0 {
		// The object contributes no tuples, so the subplans that include
		// it cannot produce results (§5.2.4).
		batch.Release()
		m.stats.SubplansPruned += m.retire(o)
		return
	}
	if len(m.cacheOrder) >= m.cfg.CacheSize {
		cands := m.cands[:0]
		for _, c := range m.cacheOrder {
			if !m.pinned[c] {
				cands = append(cands, m.ids[c])
			}
		}
		if m.cands = cands; len(cands) == 0 {
			// Cache is entirely pinned. A pinned arrival always has
			// room (a subplan has at most CacheSize objects), so the
			// arrival must be unpinned: drop it and let a later
			// cycle refetch it.
			if m.pinned[o] {
				panic(fmt.Sprintf("mjoin: pinned arrival %v with fully pinned cache", m.ids[o]))
			}
			batch.Release()
			return
		}
		m.arriving, m.tallied = o, false
		_, victim := m.number(m.cfg.Policy.PickVictim(cands, m.ids[o], m))
		m.evict(victim)
	}
	m.buildEntry(&m.slots[o], rel, batch)
	m.cacheOrder = append(m.cacheOrder, o)
	m.seq++
	m.arrivalSeq[o] = m.seq
	m.executeRunnable(o)
}

// retire drops every pending subplan that includes object o and returns
// how many it dropped.
func (m *Stream) retire(o int) int {
	found := m.walk(o, -1, true)
	for _, i := range found {
		m.removePending(i)
	}
	return len(found)
}

// evict drops cached object o, releasing its storage to the working-memory
// pool; subplans still needing it will trigger a reissue in a later cycle.
func (m *Stream) evict(o int) {
	k := slices.Index(m.cacheOrder, o)
	m.cacheOrder = slices.Delete(m.cacheOrder, k, k+1) // panics unless o is cached
	m.slots[o].release()
	m.stats.Evictions++
}

// executeRunnable runs the pending subplans whose objects are all cached
// and, when o ≥ 0, that include object o, the newest arrival: only those
// can have become runnable. It runs them in ascending order, the
// lexicographic order of their segment combinations, so a whole MJoin run,
// rows and row order included, is a deterministic function of the query
// and the arrival order.
func (m *Stream) executeRunnable(o int) {
	for _, i := range m.walk(o, -1, false) {
		m.executeSubplan(i)
		m.removePending(i)
		m.stats.SubplansExecuted++
	}
}

// walk returns, ascending, the pending subplans whose segment of each
// relation is object fix's for fix's relation (when fix ≥ 0), and for every
// other one a segment whose object is cached or is extra, or any segment
// when all is set. It runs an odometer over the product of those
// per-relation lists, not over the lattice, and its result is reused by the
// next walk.
func (m *Stream) walk(fix, extra int, all bool) []int {
	pick, at, digit, found := m.pick[:0], m.at, m.digit, m.found[:0]
	for r := range m.dims {
		at[r], digit[r] = len(pick), len(pick)
		fixed := m.off[r] <= fix && fix < m.off[r+1]
		for o := m.off[r]; o < m.off[r+1]; o++ {
			if o == fix || !fixed && (all || o == extra || m.slots[o].batch != nil) {
				pick = append(pick, o-m.off[r])
			}
		}
		if len(pick) == at[r] {
			m.found = found
			return found
		}
	}
	m.pick, at[len(m.dims)] = pick, len(pick)
	for r := 0; r >= 0; {
		i := 0
		for j, d := range digit {
			i += pick[d] * m.stride[j]
		}
		if m.pending[i/64]&(1<<(i%64)) != 0 {
			found = append(found, i)
		}
		for r = len(digit) - 1; r >= 0; r-- {
			if digit[r]++; digit[r] < at[r+1] {
				break
			}
			digit[r] = at[r]
		}
	}
	m.found = found
	return found
}

// object returns the number of subplan i's object of relation r.
func (m *Stream) object(i, r int) int { return m.off[r] + i/m.stride[r]%m.dims[r] }

// number returns the relation and the number of the object with the given
// ID, or -1 for both when the query does not read it. A table is read by
// one relation at most (NewStream), and its objects are usually listed by
// index.
func (m *Stream) number(id segment.ObjectID) (int, int) {
	for r, rel := range m.q.Relations {
		if objs := rel.Table.Objects; rel.Table.Name == id.Table {
			s := id.Index
			if s < 0 || s >= len(objs) || objs[s] != id {
				s = slices.Index(objs, id)
			}
			if s >= 0 {
				return r, m.off[r] + s
			}
		}
	}
	return -1, -1
}

// removePending drops subplan i from the pending set and bookkeeping.
func (m *Stream) removePending(i int) {
	m.pending[i/64] &^= 1 << (i % 64)
	m.left--
	for r := range m.dims {
		m.pendingCount[m.object(i, r)]--
	}
}

// byID returns object id's entry of the per-object array a; 0 when the query
// does not read the object.
func (m *Stream) byID(a []int, id segment.ObjectID) int {
	if _, o := m.number(id); o >= 0 {
		return a[o]
	}
	return 0
}

// PendingCount implements PolicyInfo.
func (m *Stream) PendingCount(id segment.ObjectID) int { return m.byID(m.pendingCount, id) }

// ExecutableCount implements PolicyInfo. The first call of an eviction
// decision tallies every object's count in one walk over the product of
// the relations' cached segments, the arriving object counted as cached.
func (m *Stream) ExecutableCount(id segment.ObjectID) int {
	if !m.tallied {
		clear(m.exec)
		for _, i := range m.walk(-1, m.arriving, false) {
			for r := range m.dims {
				m.exec[m.object(i, r)]++
			}
		}
		m.tallied = true
	}
	return m.byID(m.exec, id)
}

// ArrivalSeq implements PolicyInfo.
func (m *Stream) ArrivalSeq(id segment.ObjectID) int { return m.byID(m.arrivalSeq, id) }
