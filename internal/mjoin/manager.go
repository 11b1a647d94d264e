package mjoin

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/segment"
	"repro/internal/trace"
	"repro/internal/tuple"
)

// Source supplies objects out of order. The production implementation is
// the client proxy over the CSD; tests script arbitrary arrival orders.
type Source interface {
	// Request issues GETs for the given objects. The state manager calls
	// it once per cycle with every object still needed.
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

// Costs parametrizes virtual processing charges.
type Costs struct {
	// ProcessPerObject is charged on every arrival that is scanned into
	// the cache (including rescans of reissued objects). The paper's
	// Table 3 measures MJoin's per-object processing at ≈6% above the
	// vanilla engine's.
	ProcessPerObject time.Duration
}

// DefaultCosts mirrors Table 3: 433 s over 57 objects ≈ 7.6 s/object.
func DefaultCosts() Costs { return Costs{ProcessPerObject: 7600 * time.Millisecond} }

// Config controls one MJoin execution.
type Config struct {
	// CacheSize is the buffer capacity in objects; it must be at least
	// the number of relations or no subplan could ever run.
	CacheSize int
	// Policy picks eviction victims (default MaxProgress).
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
	// Clock charges virtual processing time (default: no charging).
	Clock engine.Clock
	// Costs are the virtual charges.
	Costs Costs
	// MaxCycles bounds request-reissue cycles as a livelock guard.
	MaxCycles int
	// Trace, when non-nil, receives per-cycle and per-arrival-decode
	// spans. Spans carry wall time only: the manager has no virtual-clock
	// handle of its own (charges go through Clock). nil records nothing.
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
		Clock:        engine.NopClock{},
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
	// again — rescans are real work, exactly like the processing charge.
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

// objRef locates an object inside the query: relation and segment index.
type objRef struct {
	rel, seg int
}

// Stream is one MJoin execution (Algorithm 1), the state manager itself, as
// an engine.Iterator that runs once. Closed early, it still runs the whole
// join, so a run's GETs and virtual charges never depend on how much of its
// output was read.
type Stream struct {
	q   *Query
	cfg Config
	src Source

	probe    *probePlan
	objIndex map[segment.ObjectID]objRef
	objByRef map[objRef]segment.ObjectID

	// cds[r] is relation r's decode buffer: a filtered arrival's cache entry
	// copies the survivors out of it, an unfiltered one takes its vectors,
	// and the next decode draws new ones from the working-memory pool.
	// legScratch[r] is the relation's filter scratch, reused the same way.
	cds        []segment.ColumnData
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

	pending      map[string]subplan
	pendingCount map[segment.ObjectID]int

	cache      map[segment.ObjectID]*cacheEntry
	cacheOrder []segment.ObjectID // arrival order, oldest first
	arrivalSeq map[segment.ObjectID]int
	seq        int

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

	arriving segment.ObjectID // current arrival, for ExecutableCount

	// pinned marks the objects of one designated subplan after a cycle
	// that executed nothing. Pinned objects cannot be evicted and must
	// be cached on arrival, guaranteeing the designated subplan runs in
	// the next cycle. This closes a livelock the paper's greedy
	// heuristics leave open under adversarial arrival orders: with a
	// cache of exactly R objects, an unlucky delivery order can evict
	// every partially-assembled combination forever.
	pinned map[segment.ObjectID]bool
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
	probe, err := buildProbePlan(q)
	if err != nil {
		return nil, err
	}
	if cfg.CacheSize < len(q.Relations) {
		return nil, &CacheTooSmallError{CacheSize: cfg.CacheSize, Widest: len(q.Relations)}
	}
	if cfg.Policy == nil {
		cfg.Policy = MaxProgress{}
	}
	if cfg.Clock == nil {
		cfg.Clock = engine.NopClock{}
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 1 << 20
	}
	m := &Stream{
		q:            q,
		cfg:          cfg,
		src:          src,
		probe:        probe,
		objIndex:     make(map[segment.ObjectID]objRef),
		objByRef:     make(map[objRef]segment.ObjectID),
		pending:      make(map[string]subplan),
		pendingCount: make(map[segment.ObjectID]int),
		cache:        make(map[segment.ObjectID]*cacheEntry),
		arrivalSeq:   make(map[segment.ObjectID]int),
	}
	m.cds, m.legScratch = make([]segment.ColumnData, len(q.Relations)), make([]engine.LegScratch, len(q.Relations))
	for ri, rel := range q.Relations {
		for si, id := range rel.Table.Objects {
			ref := objRef{rel: ri, seg: si}
			m.objIndex[id] = ref
			m.objByRef[ref] = id
		}
	}
	for _, sp := range enumerateSubplans(q) {
		m.pending[sp.key()] = sp
		for ri, si := range sp {
			m.pendingCount[m.objByRef[objRef{ri, si}]]++
		}
	}
	m.stats.SubplansTotal = len(m.pending)
	if cfg.StatsPruning {
		m.skipByStats()
	}
	return m, nil
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
// remaining cycles, making every GET, charge and arrival a full drain would
// have, discards their output and returns the error that stopped them, if
// any, releasing every output chunk. After a failure it asks nothing more
// of the source.
func (m *Stream) Close() error {
	for {
		for _, b := range append(m.out, m.handed) {
			b.Release()
		}
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
				m.pinned = nil
			}
			m.cfg.Trace.End(m.cycleSpan)
		}
		return
	}
	if len(m.pending) == 0 {
		m.finish(nil)
		return
	}
	if m.stats.Cycles >= m.cfg.MaxCycles {
		m.finish(fmt.Errorf("mjoin: no progress after %d cycles (%d subplans stuck)", m.stats.Cycles, len(m.pending)))
		return
	}
	m.stats.Cycles++
	if m.cfg.Trace.Enabled() {
		m.cycleSpan = m.cfg.Trace.Begin(trace.CatCycle, fmt.Sprintf("cycle %d", m.stats.Cycles))
	}
	toFetch := m.neededObjects()
	if len(toFetch) == 0 {
		// Everything needed is cached; finish the runnable work.
		m.executeAllRunnable()
		m.cfg.Trace.End(m.cycleSpan)
		if m.finish(nil); len(m.pending) > 0 {
			m.err = fmt.Errorf("mjoin: %d subplans pending with all objects cached", len(m.pending))
		}
		return
	}
	m.src.Request(toFetch)
	m.stats.Requests += len(toFetch)
	if len(m.pinned) > 0 {
		m.stats.PinnedCycles++
	}
	m.arrivals = len(toFetch)
	m.progress = m.stats.SubplansExecuted + m.stats.SubplansPruned
}

// finish ends the run, failed when err is non-nil, and hands the cache,
// the decode buffers and their scratch back to the working-memory pool.
func (m *Stream) finish(err error) {
	m.done, m.err = true, err
	for _, e := range m.cache {
		e.release()
	}
	for r := range m.cds {
		m.cds[r].Release()
		m.legScratch[r].Release()
	}
	tuple.Release(m.hashBuf)
	m.cache, m.cacheOrder, m.cds, m.legScratch, m.hashBuf = nil, nil, nil, nil, nil
}

// skipByStats retires, before the first request cycle, every subplan
// containing a segment its relation's Pruner proves result-free — the
// data-skipping counterpart of runtime subplan pruning (§5.2.4), with
// zone maps and Bloom filters standing in for fetching the object. The
// skipped objects never enter neededObjects, so no GET for them is ever
// enqueued at the CSD.
func (m *Stream) skipByStats() {
	// Materialize per-relation skip sets once, then retire subplans in a
	// single pass over the pending map (the lattice can be large).
	skip := make([][]bool, len(m.q.Relations))
	any := false
	for ri, rel := range m.q.Relations {
		if rel.Pruner == nil {
			continue
		}
		set := make([]bool, len(rel.Table.Objects))
		for si := range set {
			if rel.Pruner.CanSkip(si) {
				set[si] = true
				m.stats.ObjectsSkipped++
				any = true
			}
		}
		skip[ri] = set
	}
	if !any {
		return
	}
	for key, sp := range m.pending {
		for ri, si := range sp {
			if skip[ri] != nil && skip[ri][si] {
				m.removePending(key, sp)
				m.stats.SubplansSkipped++
				break
			}
		}
	}
}

// pinDesignatedSubplan selects the lexicographically smallest pending
// subplan and pins its objects so the next cycle is guaranteed to execute
// it (progress guarantee; see the pinned field).
func (m *Stream) pinDesignatedSubplan() {
	var bestKey string
	for key := range m.pending {
		if bestKey == "" || key < bestKey {
			bestKey = key
		}
	}
	sp := m.pending[bestKey]
	m.pinned = make(map[segment.ObjectID]bool, len(sp))
	for ri, si := range sp {
		m.pinned[m.objByRef[objRef{ri, si}]] = true
	}
}

// neededObjects returns, deduplicated and in relation-then-segment order,
// every uncached object that some pending subplan requires.
func (m *Stream) neededObjects() []segment.ObjectID {
	need := make(map[segment.ObjectID]bool)
	for _, sp := range m.pending {
		for ri, si := range sp {
			id := m.objByRef[objRef{ri, si}]
			if _, cached := m.cache[id]; !cached {
				need[id] = true
			}
		}
	}
	var out []segment.ObjectID
	for _, rel := range m.q.Relations {
		for _, id := range rel.Table.Objects {
			if need[id] {
				out = append(out, id)
			}
		}
	}
	return out
}

// admitArrival folds one decoded arrival into the cache — pruning empty
// objects, evicting under pressure — and runs the subplans it makes
// runnable.
func (m *Stream) admitArrival(id segment.ObjectID, rel int, batch *tuple.Batch) {
	if _, cached := m.cache[id]; cached {
		// Redelivery of a resident object — a fault-recovery re-request
		// racing a coalesced transfer can hand the proxy the same object
		// twice. Admitting it again would append a duplicate cacheOrder
		// slot and corrupt eviction; just (re)run whatever it unblocks.
		m.executeRunnableWith(id)
		return
	}
	if m.cfg.Pruning && batch.Len() == 0 {
		m.pruneObject(id)
		return
	}
	if len(m.cache) >= m.cfg.CacheSize {
		candidates := m.cacheOrder
		if len(m.pinned) > 0 {
			candidates = nil
			for _, cid := range m.cacheOrder {
				if !m.pinned[cid] {
					candidates = append(candidates, cid)
				}
			}
			if len(candidates) == 0 {
				// Cache is entirely pinned. A pinned arrival always has
				// room (a subplan has at most CacheSize objects), so the
				// arrival must be unpinned: drop it and let a later
				// cycle refetch it.
				if m.pinned[id] {
					panic(fmt.Sprintf("mjoin: pinned arrival %v with fully pinned cache", id))
				}
				return
			}
		}
		m.arriving = id
		victim := m.cfg.Policy.PickVictim(candidates, id, m)
		m.evict(victim)
	}
	m.cache[id] = m.buildEntry(rel, batch)
	m.cacheOrder = append(m.cacheOrder, id)
	m.seq++
	m.arrivalSeq[id] = m.seq
	m.executeRunnableWith(id)
}

// pruneObject marks every pending subplan containing the object as pruned:
// the object contributes no tuples, so those subplans cannot produce
// results (§5.2.4).
func (m *Stream) pruneObject(id segment.ObjectID) {
	ref := m.objIndex[id]
	for key, sp := range m.pending {
		if sp[ref.rel] == ref.seg {
			m.removePending(key, sp)
			m.stats.SubplansPruned++
		}
	}
}

// evict drops a cached object, releasing its storage to the working-memory
// pool; subplans still needing it will trigger a reissue in a later cycle.
func (m *Stream) evict(victim segment.ObjectID) {
	e, ok := m.cache[victim]
	if !ok {
		panic(fmt.Sprintf("mjoin: policy picked non-cached victim %v", victim))
	}
	e.release()
	delete(m.cache, victim)
	for i, id := range m.cacheOrder {
		if id == victim {
			m.cacheOrder = append(m.cacheOrder[:i], m.cacheOrder[i+1:]...)
			break
		}
	}
	m.stats.Evictions++
}

// executeRunnableWith runs every pending subplan that contains id and
// whose objects are all cached. Only subplans containing the newest
// arrival can have become runnable.
func (m *Stream) executeRunnableWith(id segment.ObjectID) {
	ref := m.objIndex[id]
	var runnable []string
	for key, sp := range m.pending {
		if sp[ref.rel] != ref.seg {
			continue
		}
		if m.allCached(sp) {
			runnable = append(runnable, key)
		}
	}
	m.executeKeys(runnable)
}

// executeAllRunnable runs every pending subplan whose objects are cached.
func (m *Stream) executeAllRunnable() {
	var runnable []string
	for key, sp := range m.pending {
		if m.allCached(sp) {
			runnable = append(runnable, key)
		}
	}
	m.executeKeys(runnable)
}

// executeKeys runs the named subplans in lexicographic key order. The
// callers collect runnable keys by iterating the pending map, whose
// order is randomized per run; sorting here pins the execution order so
// a whole MJoin run — rows and row order included — is a deterministic
// function of the query and the arrival order.
func (m *Stream) executeKeys(keys []string) {
	sort.Strings(keys)
	for _, key := range keys {
		sp, ok := m.pending[key]
		if !ok {
			continue
		}
		m.executeSubplan(sp)
		m.removePending(key, sp)
		m.stats.SubplansExecuted++
	}
}

func (m *Stream) allCached(sp subplan) bool {
	for ri, si := range sp {
		if _, ok := m.cache[m.objByRef[objRef{ri, si}]]; !ok {
			return false
		}
	}
	return true
}

// removePending drops a subplan from the pending set and bookkeeping.
func (m *Stream) removePending(key string, sp subplan) {
	delete(m.pending, key)
	for ri, si := range sp {
		m.pendingCount[m.objByRef[objRef{ri, si}]]--
	}
}

// PolicyInfo implementation.

// PendingCount implements PolicyInfo.
func (m *Stream) PendingCount(id segment.ObjectID) int { return m.pendingCount[id] }

// ExecutableCounts implements PolicyInfo: one pass over the pending set
// tallying, per object, the subplans executable given cache ∪ {arriving}.
func (m *Stream) ExecutableCounts() map[segment.ObjectID]int {
	counts := make(map[segment.ObjectID]int, len(m.cache)+1)
	ids := make([]segment.ObjectID, len(m.q.Relations))
	for _, sp := range m.pending {
		ok := true
		for ri, si := range sp {
			oid := m.objByRef[objRef{ri, si}]
			ids[ri] = oid
			if oid == m.arriving {
				continue
			}
			if _, cached := m.cache[oid]; !cached {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, oid := range ids {
			counts[oid]++
		}
	}
	return counts
}

// ArrivalSeq implements PolicyInfo.
func (m *Stream) ArrivalSeq(id segment.ObjectID) int { return m.arrivalSeq[id] }
