package mjoin

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/trace"
	"repro/internal/tuple"
)

// This file implements the stateless n-ary join operator (§4.1): the
// state manager builds one hash index per cached object, over the join
// column that attaches the object's relation to the chain, and subplan
// execution probes those indexes directly — no per-subplan rebuild.
// Relation 0 (the probe root) needs no index.
//
// Nothing on this path materializes a row, or carries a column the query
// does not read:
//
//   - An arrival goes through its relation's leg kernel (engine.Leg): only
//     Relation.Cols are decoded, the filter becomes a selection vector, and
//     the cache entry holds the survivors of those columns, allocated at
//     the survivor count; an unfiltered arrival's entry simply owns the
//     columns it was decoded into (decodeArrival).
//   - A partial tuple is one int32 row id per relation joined so far, held
//     in struct-of-arrays scratch. Each chain level reads its left key
//     straight from the cached column of the relation that owns it, walks
//     the matching bucket of the next relation's index in ascending row
//     order, and appends the ids of the matches (probeLevels).
//   - Only the partials that survive the last level are gathered, column
//     by column, into output chunks as wide as the legs together (emit).
//     The Stream hands each chunk on as it completes and refills it after.
//
// So a run allocates nothing per row, and in proportion to its cache rather
// than to its arrivals or its result: the next arrival, of any relation,
// decodes and indexes into what evicted entries leave in the pool.

// probeChunk bounds how many root rows are expanded through the probe
// chain at once, keeping the id arrays cache-sized.
const probeChunk = 1024

// outChunkRows is the capacity output chunks grow to: early chunks double
// from the size of the first emit, so a small result costs what it holds.
const outChunkRows = 1024

// cacheEntry is the cached state of one arrived object: its filtered
// rows in columnar form plus the hash index on the relation's inbound
// join column.
type cacheEntry struct {
	batch *tuple.Batch
	// index chains the rows of batch by hash(join-key); unbuilt for
	// relation 0.
	index tuple.HashIndex
	// keyIdx is the column the index is built over (RightCol of the
	// relation's JoinCond), -1 for relation 0.
	keyIdx int
}

// processArrival handles one delivered object: an arrival no pending
// subplan needs any more (raced with pruning/completion) is dropped
// undecoded and uncharged; any other pays the per-object processing charge,
// is decoded, counted and admitted to the cache. It fails on a corrupt
// arrival (lazy-store block decode), mirroring the vanilla scan path.
func (m *Stream) processArrival(seg *segment.Segment) error {
	m.stats.Arrivals++
	ref, known := m.objIndex[seg.ID]
	if !known {
		panic(fmt.Sprintf("mjoin: arrival of object %v not in query %s", seg.ID, m.q.ID))
	}
	if m.pendingCount[seg.ID] == 0 {
		return nil
	}
	m.cfg.Clock.Sleep(m.cfg.Costs.ProcessPerObject)
	start := time.Now()
	batch, by, err := m.decodeArrival(ref.rel, seg)
	m.stats.Pipe.DecodeBusy += time.Since(start)
	m.stats.Pipe.Decodes++
	if m.cfg.Trace.Enabled() {
		m.cfg.Trace.Emit(trace.CatDecode, seg.ID.String(), start)
	}
	if err != nil {
		return err
	}
	m.stats.BytesFetched += by.Fetched
	m.stats.BytesDecoded += by.Decoded
	m.stats.BytesSkippedByProjection += by.SkippedByProjection
	m.stats.BytesMaterialized += by.Materialized
	m.admitArrival(seg.ID, ref.rel, batch)
	return nil
}

// decodeArrival turns one delivered segment into the batch a cache entry
// holds — the relation's filtered rows, Cols wide — by running the
// relation's leg kernel over it (engine.Leg.ReadSegment): a filtered
// arrival is copied out of the relation's reused decode buffer at the
// survivor count, an unfiltered lazy one owns its decoded vectors, which
// refill has restocked from the pool where it could. Decode errors (lazy
// stores validate headers at build time, block contents on first decode)
// and filter errors surface as errors, like the vanilla scan path.
func (m *Stream) decodeArrival(rel int, seg *segment.Segment) (*tuple.Batch, engine.ScanBytes, error) {
	if seg.Lazy() {
		m.refill(rel, seg.NumRows())
	}
	batch, by, err := m.probe.legs[rel].ReadSegment(seg, m.cds[rel])
	if err != nil {
		err = fmt.Errorf("mjoin: arrival %v: %w", seg.ID, err)
	}
	return batch, by, err
}

// buildEntry constructs the cache entry for an arrival of relation rel,
// hashing the whole segment's key column in one vectorized pass into an
// index whose arrays come off the pool when an evicted entry's fit.
func (m *Stream) buildEntry(rel int, batch *tuple.Batch) *cacheEntry {
	e := &cacheEntry{batch: batch, keyIdx: m.probe.keyCol[rel]}
	if rel == 0 {
		return e
	}
	e.index, _ = takeBest(&m.pool.indexes, batch.Len(), func(ix tuple.HashIndex) int { return ix.Cap() })
	m.hashBuf = batch.HashColumns([]int{e.keyIdx}, m.hashBuf)
	e.index.Build(m.hashBuf)
	return e
}

// pool is what evicted cache entries leave to the arrivals after them:
// their decoded vectors and their index arrays. It only ever holds what the
// run has retired, and goes when the run does.
type pool struct {
	vecs    []tuple.Vector
	indexes []tuple.HashIndex
}

// retire pools an evicted entry's index arrays and, when its relation
// decodes arrivals (a mem-format one has nothing to refill), its vectors.
func (m *Stream) retire(e *cacheEntry, vectors bool) {
	if e.keyIdx >= 0 {
		m.pool.indexes = append(m.pool.indexes, e.index)
	}
	if vectors {
		for c := range e.batch.Schema().Cols {
			m.pool.vecs = append(m.pool.vecs, e.batch.Col(c))
		}
	}
}

// refill readies relation rel's decode buffer for an arrival of n rows:
// each column the leg reads whose vector holds fewer than n cells gets the
// best-fitting one off the pool — of the same storage class, the slice its
// kind picks — so the decode writes into it.
func (m *Stream) refill(rel, n int) {
	leg := m.probe.legs[rel]
	if m.cds[rel] == nil {
		m.cds[rel] = &segment.ColumnData{Cols: make([]tuple.Vector, m.q.Relations[rel].Table.Schema.Len())}
	}
	for c, src := range leg.Cols() {
		k := leg.Schema().Cols[c].Kind
		if v := &m.cds[rel].Cols[src]; v.Cap(k) < n {
			*v, _ = takeBest(&m.pool.vecs, n, func(v tuple.Vector) int { return v.Cap(k) })
		}
	}
}

// takeBest removes from items, and returns, the one of least size that
// still holds n, if there is one.
func takeBest[T any](items *[]T, n int, size func(T) int) (T, bool) {
	best, bestSize := -1, 0
	for i, x := range *items {
		if sz := size(x); sz >= n && (best < 0 || sz < bestSize) {
			best, bestSize = i, sz
		}
	}
	var x T
	if best < 0 {
		return x, false
	}
	last := len(*items) - 1
	x, (*items)[best] = (*items)[best], (*items)[last]
	*items = (*items)[:last]
	return x, true
}

// probePlan is everything execution derives from a valid query, once: the
// relations' legs and, resolved against the legs' narrow schemas, where each
// join reads its keys.
type probePlan struct {
	// legs[r] is relation r's leg: Table.Schema restricted to Cols, with
	// the relation's Filter.
	legs []*engine.Leg
	// out is the output schema: the leg schemas, concatenated.
	out *tuple.Schema
	// leftRel[i-1] and leftCol[i-1] are the relation (< i) and the column
	// within its leg that Joins[i-1].LeftCol names.
	leftRel, leftCol []int
	// keyCol[r] is the column of leg r that the relation's cache-entry
	// index is keyed on (RightCol of its JoinCond); -1 for relation 0.
	keyCol []int
}

// buildProbePlan validates the query's structure and resolves it.
func buildProbePlan(q *Query) (*probePlan, error) {
	if len(q.Relations) == 0 {
		return nil, fmt.Errorf("mjoin: query %s has no relations", q.ID)
	}
	if len(q.Joins) != len(q.Relations)-1 {
		return nil, fmt.Errorf("mjoin: query %s has %d relations but %d join conditions", q.ID, len(q.Relations), len(q.Joins))
	}
	// A plan is built per validation and per run: one slab backs its int
	// lists.
	n := len(q.Relations)
	ints := make([]int, 4*n)
	pp := &probePlan{
		legs:    make([]*engine.Leg, 0, n),
		leftRel: ints[:0:n], leftCol: ints[n : n : 2*n], keyCol: append(ints[2*n:2*n:3*n], -1),
	}
	for ri, rel := range q.Relations {
		for i, ci := range rel.Cols {
			if ci < 0 || ci >= rel.Table.Schema.Len() || (i > 0 && ci <= rel.Cols[i-1]) {
				return nil, fmt.Errorf("mjoin: query %s relation %d: projected columns %v must ascend within the table's %d columns", q.ID, ri, rel.Cols, rel.Table.Schema.Len())
			}
		}
		if rel.Cols != nil && rel.Filter != nil {
			var outside []string
			expr.Columns(rel.Filter, func(c expr.Col) {
				if !slices.Contains(rel.Cols, c.Idx) {
					outside = append(outside, c.Name)
				}
			})
			if outside != nil {
				return nil, fmt.Errorf("mjoin: query %s relation %d: filter reads %v, which Cols leaves out", q.ID, ri, outside)
			}
		}
		pp.legs = append(pp.legs, engine.NewLeg(rel.Table.Schema, rel.Cols, rel.Filter))
	}
	pp.out = pp.legs[0].Schema()
	// starts[r] is the offset of relation r's columns in the accumulated
	// schema, which is what LeftCol resolves against.
	starts := ints[3*n : 3*n+1 : 4*n]
	for i, jc := range q.Joins {
		if jc.Rel != i+1 {
			return nil, fmt.Errorf("mjoin: join %d must attach relation %d, got %d", i, i+1, jc.Rel)
		}
		idx, ok := pp.out.ColIndex(jc.LeftCol)
		if !ok {
			return nil, fmt.Errorf("mjoin: join %d: column %q not in accumulated schema %v", i, jc.LeftCol, pp.out.ColumnNames())
		}
		rs := pp.legs[jc.Rel].Schema()
		key, ok := rs.ColIndex(jc.RightCol)
		if !ok {
			return nil, fmt.Errorf("mjoin: join %d: column %q not among the columns %v read from relation %q", i, jc.RightCol, rs.ColumnNames(), q.Relations[jc.Rel].Table.Name)
		}
		rel := len(starts) - 1
		for starts[rel] > idx {
			rel--
		}
		pp.leftRel = append(pp.leftRel, rel)
		pp.leftCol = append(pp.leftCol, idx-starts[rel])
		pp.keyCol = append(pp.keyCol, key)
		starts = append(starts, pp.out.Len())
		pp.out = pp.out.Concat(rs)
	}
	return pp, nil
}

// probeScratch is the reusable probe-chain state: the partial tuples of the
// level being read and of the level being written, as one row-id array per
// relation (cur[r][k] is partial k's row in relation r's cached batch). The
// arrays are allocated on first use and ping-ponged across chain levels.
type probeScratch struct {
	cur, next [][]int32
}

// executeSubplan joins the subplan's cached segments by probing the
// per-object hash indexes left to right, a chunk of root rows at a time,
// and emits the surviving tuples.
func (m *Stream) executeSubplan(sp subplan) {
	entries, srcs := m.entries[:0], m.srcs[:0]
	empty := false
	for ri, si := range sp {
		id := m.objByRef[objRef{ri, si}]
		e, ok := m.cache[id]
		if !ok {
			panic(fmt.Sprintf("mjoin: executing subplan with uncached object %v", id))
		}
		empty = empty || e.batch.Len() == 0
		entries, srcs = append(entries, e), append(srcs, e.batch)
	}
	m.entries, m.srcs = entries, srcs
	if m.onSubplan != nil {
		m.onSubplan(entries)
	}
	if empty {
		return // an empty leg cannot produce output
	}
	rootLen := srcs[0].Len()
	for start := 0; start < rootLen; start += probeChunk {
		if n := m.probeLevels(entries, start, min(start+probeChunk, rootLen)); n > 0 {
			m.emit(srcs, m.scratch.cur, n)
		}
	}
}

// probeLevels expands root rows [start, end) through every probe level and
// returns how many partial tuples survive the last one; their row ids are
// left in m.scratch.cur.
func (m *Stream) probeLevels(entries []*cacheEntry, start, end int) int {
	sc := &m.scratch
	if sc.cur == nil {
		sc.cur, sc.next = make([][]int32, len(entries)), make([][]int32, len(entries))
	}
	cur, next := sc.cur, sc.next
	cur[0] = slices.Grow(cur[0][:0], end-start)
	for i := start; i < end; i++ {
		cur[0] = append(cur[0], int32(i))
	}
	for depth := 1; depth < len(entries) && len(cur[0]) > 0; depth++ {
		e := entries[depth]
		leftRel, leftCol := m.probe.leftRel[depth-1], m.probe.leftCol[depth-1]
		left, keys := entries[leftRel].batch.Col(leftCol), e.batch.Col(e.keyIdx)
		// Most joins here are key/foreign-key, so about one match per
		// partial is the size to start from.
		for r := 0; r <= depth; r++ {
			next[r] = slices.Grow(next[r][:0], len(cur[leftRel]))
		}
		// One key kind per level; keys of different kinds never match.
		switch k := e.batch.Schema().Cols[e.keyIdx].Kind; {
		case k != entries[leftRel].batch.Schema().Cols[leftCol].Kind:
		case k == tuple.KindString:
			probeLevel(&e.index, left.S, keys.S, func(s string) uint64 { return tuple.HashKey(tuple.Str(s)) }, cur, next, leftRel, depth)
		case k == tuple.KindFloat64:
			probeLevel(&e.index, left.F, keys.F, func(f float64) uint64 { return tuple.HashKey(tuple.Float(f)) }, cur, next, leftRel, depth)
		default:
			probeLevel(&e.index, left.I, keys.I, func(i int64) uint64 { return tuple.HashKey(tuple.Int(i)) }, cur, next, leftRel, depth)
		}
		cur, next = next, cur
	}
	// Hand the (possibly grown) arrays back for reuse, survivors in cur.
	sc.cur, sc.next = cur, next
	return len(cur[0])
}

// probeLevel runs one chain level over key cells of type T: for every
// partial in cur, whose left key is its row of left in relation leftRel, it
// walks the matching bucket of ix in ascending row order and appends to
// next the partial extended by each row of keys holding an equal key.
func probeLevel[T tuple.Key](ix *tuple.HashIndex, left, keys []T, hash func(T) uint64, cur, next [][]int32, leftRel, depth int) {
	for k, id := range cur[leftRel] {
		key := left[id]
		for mi := ix.First(hash(key)); mi >= 0; mi = ix.Next(mi) {
			if !tuple.SameKey(key, keys[mi]) {
				continue // another key of the same bucket
			}
			for r := 0; r < depth; r++ {
				next[r] = append(next[r], cur[r][k])
			}
			next[depth] = append(next[depth], mi)
		}
	}
}

// emit gathers n surviving partial tuples into the output chunks, filling
// the open chunk before starting another. A new chunk has room for what is
// left to emit or twice the previous chunk, whichever is more, up to
// outChunkRows: chunks are never regrown, and a result of a few rows is
// not charged a full-sized chunk.
func (m *Stream) emit(srcs []*tuple.Batch, ids [][]int32, n int) {
	m.stats.ResultRows += n
	for lo := 0; lo < n; {
		var tail *tuple.Batch
		if k := len(m.out); k > 0 {
			tail = m.out[k-1]
		}
		if tail == nil || tail.Full() {
			tail = m.newChunk(min(max(n-lo, 2*m.chunkCap), outChunkRows))
			m.out = append(m.out, tail)
		}
		hi := min(n, lo+tail.Cap()-tail.Len())
		tail.AppendJoined(srcs, ids, lo, hi)
		lo = hi
	}
}

// newChunk returns an empty output chunk with room for at least rows rows:
// the last chunk handed out if it is that large (the smaller ones go), a
// new one otherwise.
func (m *Stream) newChunk(rows int) *tuple.Batch {
	for len(m.free) > 0 {
		b := m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
		if b.Cap() >= rows {
			b.Reset()
			m.chunkCap = b.Cap()
			return b
		}
	}
	m.chunkCap = rows
	return tuple.NewBatch(m.probe.out, rows)
}
