package mjoin

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/tuple"
)

// This file implements the stateless n-ary join operator (§4.1): the
// state manager builds one hash index per cached object, over the join
// column that attaches the object's relation to the chain, and subplan
// execution probes those indexes directly — no per-subplan rebuild.
// Relation 0 (the probe root) needs no index.
//
// Nothing on this path materializes a row:
//
//   - An arrival is filtered into a selection vector first, and its cache
//     entry is allocated at the survivor count; an unfiltered arrival's
//     entry simply owns the freshly decoded columns (decodeArrival).
//   - A partial tuple is one int32 row id per relation joined so far, held
//     in per-worker struct-of-arrays scratch. Each chain level reads its
//     left key straight from the cached column of the relation that owns
//     it, walks the matching bucket of the next relation's index in
//     ascending row order, and appends the ids of the matches
//     (probeLevels).
//   - Only the partials that survive the last level are gathered, column
//     by column, into the output chunks (emit). Run turns chunks into rows
//     for callers that want rows; RunBatches hands the chunks on as they
//     are.
//
// So steady-state probing and table building allocate per object and per
// output chunk, never per row.
//
// With Config.Parallelism > 1 the probeChunk-sized root partitions of a
// subplan are claimed by a pool of workers, each expanding its chunks
// through the full probe chain with private scratch against the shared
// (read-only) cache entries and gathering them into a chunk of its own.
// The chunks are stitched back in root order, so the result rows are
// byte-identical to the serial execution's, in the same order, at any DOP.

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

// arrivalBytes is the byte accounting of one decoded arrival, kept out
// of Stats until the arrival is actually consumed: the pipelined path
// decodes speculatively and discards the accounting of arrivals no
// pending subplan needs (the serial path never decodes those at all).
type arrivalBytes struct {
	fetched, decoded, skippedByProjection, materialized int64
}

// addArrivalBytes folds one consumed arrival's byte accounting into Stats.
func (m *manager) addArrivalBytes(by arrivalBytes) {
	m.stats.BytesFetched += by.fetched
	m.stats.BytesDecoded += by.decoded
	m.stats.BytesSkippedByProjection += by.skippedByProjection
	m.stats.BytesMaterialized += by.materialized
}

// arrivalBatch is the serial decode step: decodeArrival against the
// manager's single reused buffer, with the byte accounting applied
// immediately.
func (m *manager) arrivalBatch(rel int, seg *segment.Segment) (*tuple.Batch, error) {
	batch, cd, by, err := m.decodeArrival(rel, seg, m.arrivalCD)
	if err != nil {
		return nil, err
	}
	if cd != nil {
		m.arrivalCD = cd
	}
	m.addArrivalBytes(by)
	return batch, nil
}

// decodeArrival turns one delivered segment into the filtered columnar
// batch a cache entry holds. Materialized segments filter their rows as
// before. Lazily decoded segments decode only the relation's projected
// column blocks (Relation.Cols); without a filter the batch takes the
// freshly decoded columns over as they are, with a filter the predicate is
// evaluated into a selection vector off the reused decode buffer and only
// the survivors are copied out, into a batch of exactly that many rows.
// Decode errors (lazy stores validate headers at build time, block
// contents on first decode) surface as errors, like the vanilla scan path;
// filter failures still panic — the predicate was validated at plan time,
// so they indicate a bug.
//
// decodeArrival is a pure computation over immutable manager state (the
// query plan) plus the reuse buffer the caller hands over and gets back:
// it is safe to run on a decode-pool worker as long as each concurrent
// call owns a distinct reuse buffer.
func (m *manager) decodeArrival(rel int, seg *segment.Segment, reuse *segment.ColumnData) (*tuple.Batch, *segment.ColumnData, arrivalBytes, error) {
	var by arrivalBytes
	r := &m.q.Relations[rel]
	schema := r.Table.Schema
	if !seg.Lazy() {
		rows, err := filterRows(r.Filter, seg.Rows)
		if err != nil {
			panic(fmt.Sprintf("mjoin: filter on %v: %v", seg.ID, err))
		}
		return tuple.FromRows(schema, rows), reuse, by, nil
	}
	into := reuse
	if r.Filter == nil {
		into = nil // decode into fresh columns the batch will own
	}
	cd, err := seg.DecodeColumns(schema, r.Cols, into)
	if err != nil {
		return nil, reuse, by, fmt.Errorf("mjoin: decode %v: %w", seg.ID, err)
	}
	by = arrivalBytes{
		fetched:             seg.EncodedSize(),
		decoded:             cd.BytesDecoded,
		skippedByProjection: cd.BytesSkipped,
		materialized:        cd.BytesMaterialized,
	}
	if r.Filter == nil {
		return tuple.BatchOf(schema, cd.Cols, cd.NumRows), reuse, by, nil
	}
	// Evaluate the filter over a scratch row assembled per index; columns
	// outside the projection keep a fixed typed zero value (the planner
	// guarantees the filter never reads them).
	scratch := make(tuple.Row, schema.Len())
	decoded := 0
	for c := range cd.Cols {
		if cd.Cols[c] == nil {
			scratch[c] = tuple.Value{K: schema.Cols[c].Kind}
		} else {
			decoded++
		}
	}
	sel := make([]int32, 0, cd.NumRows)
	for i := 0; i < cd.NumRows; i++ {
		for c := range cd.Cols {
			if cd.Cols[c] != nil {
				scratch[c] = cd.Cols[c][i]
			}
		}
		keep, err := expr.EvalBool(r.Filter, scratch)
		if err != nil {
			panic(fmt.Sprintf("mjoin: filter on %v: %v", seg.ID, err))
		}
		if keep {
			sel = append(sel, int32(i))
		}
	}
	// One arena holds the survivors of every decoded column.
	n := len(sel)
	arena := make([]tuple.Value, decoded*n)
	cols := make([][]tuple.Value, len(cd.Cols))
	for c, src := range cd.Cols {
		if src == nil {
			continue
		}
		cols[c], arena = arena[:n:n], arena[n:]
		for k, i := range sel {
			cols[c][k] = src[i]
		}
	}
	return tuple.BatchOf(schema, cols, n), cd, by, nil
}

// buildEntry constructs the cache entry for an arrival of relation rel.
// The key column index is precomputed per relation (m.keyIdxByRel), and
// the whole segment is hashed in one vectorized pass.
func (m *manager) buildEntry(rel int, batch *tuple.Batch) *cacheEntry {
	e := &cacheEntry{batch: batch, keyIdx: -1}
	if rel == 0 {
		return e
	}
	e.keyIdx = m.keyIdxByRel[rel]
	m.hashBuf = batch.HashColumns([]int{e.keyIdx}, m.hashBuf)
	e.index.Build(m.hashBuf)
	return e
}

// probePlan precomputes, for each relation i>0, which cached column the
// chain's left key is read from.
type probePlan struct {
	// leftRel[i-1] and leftCol[i-1] are the relation (< i) and the column
	// within it that Joins[i-1].LeftCol names.
	leftRel, leftCol []int
}

func buildProbePlan(q *Query) (*probePlan, error) {
	pp := &probePlan{}
	acc := q.Relations[0].Table.Schema
	// starts[r] is the offset of relation r's columns in the accumulated
	// schema, which is what LeftCol resolves against.
	starts := []int{0}
	for i, jc := range q.Joins {
		idx, ok := acc.ColIndex(jc.LeftCol)
		if !ok {
			return nil, fmt.Errorf("mjoin: join %d: column %q not found in accumulated schema", i, jc.LeftCol)
		}
		rel := len(starts) - 1
		for starts[rel] > idx {
			rel--
		}
		pp.leftRel = append(pp.leftRel, rel)
		pp.leftCol = append(pp.leftCol, idx-starts[rel])
		starts = append(starts, acc.Len())
		acc = acc.Concat(q.Relations[jc.Rel].Table.Schema)
	}
	return pp, nil
}

// probeScratch is one worker's reusable probe-chain state: the partial
// tuples of the level being read and of the level being written, as one
// row-id array per relation (cur[r][k] is partial k's row in relation r's
// cached batch). The arrays are allocated on first use and ping-ponged
// across chain levels.
type probeScratch struct {
	cur, next [][]int32
}

// executeSubplan joins the subplan's cached segments by probing the
// per-object hash indexes left to right, a chunk of root rows at a time,
// and emits the surviving tuples. With DOP > 1 and more than one chunk of
// root rows, the chunks run on a worker pool.
func (m *manager) executeSubplan(sp subplan) {
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
	nChunks := (rootLen + probeChunk - 1) / probeChunk
	if m.dop <= 1 || nChunks <= 1 {
		sc := &m.scratches[0]
		for start := 0; start < rootLen; start += probeChunk {
			if n := m.probeLevels(entries, start, min(start+probeChunk, rootLen), sc); n > 0 {
				m.emit(srcs, sc.cur, n)
			}
		}
		return
	}
	// Parallel path: workers claim chunk indices off a shared counter,
	// expand them with private scratch and gather the survivors into a
	// chunk of their own; the chunks are adopted in root order, matching
	// the serial output exactly.
	results := make([]*tuple.Batch, nChunks)
	var nextChunk atomic.Int32
	var wg sync.WaitGroup
	workers := min(m.dop, nChunks)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := &m.scratches[w]
			for {
				c := int(nextChunk.Add(1)) - 1
				if c >= nChunks {
					return
				}
				start := c * probeChunk
				if n := m.probeLevels(entries, start, min(start+probeChunk, rootLen), sc); n > 0 {
					results[c] = tuple.NewBatch(m.schema, n)
					results[c].AppendJoined(srcs, sc.cur, 0, n)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, b := range results {
		if b != nil {
			m.out = append(m.out, b)
			m.stats.ResultRows += b.Len()
		}
	}
}

// probeLevels expands root rows [start, end) through every probe level and
// returns how many partial tuples survive the last one; their row ids are
// left in sc.cur. All mutable state lives in sc, so concurrent calls over
// disjoint chunks with distinct scratches are race-free; entries and the
// probe plan are only read.
func (m *manager) probeLevels(entries []*cacheEntry, start, end int, sc *probeScratch) int {
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
		leftRel := m.probe.leftRel[depth-1]
		leftIDs := cur[leftRel]
		leftCol := entries[leftRel].batch.Col(m.probe.leftCol[depth-1])
		keyCol := e.batch.Col(e.keyIdx)
		// Most joins here are key/foreign-key, so about one match per
		// partial is the size to start from.
		for r := 0; r <= depth; r++ {
			next[r] = slices.Grow(next[r][:0], len(leftIDs))
		}
		for k, id := range leftIDs {
			key := leftCol[id]
			for mi := e.index.First(tuple.HashKey(key)); mi >= 0; mi = e.index.Next(mi) {
				mv := keyCol[mi]
				if mv.K != key.K || !tuple.Equal(key, mv) {
					continue // another key of the same bucket
				}
				for r := 0; r < depth; r++ {
					next[r] = append(next[r], cur[r][k])
				}
				next[depth] = append(next[depth], mi)
			}
		}
		cur, next = next, cur
	}
	// Hand the (possibly grown) arrays back for reuse, survivors in cur.
	sc.cur, sc.next = cur, next
	return len(cur[0])
}

// emit gathers n surviving partial tuples into the output chunks, filling
// the open chunk before starting another. A new chunk has room for what is
// left to emit or twice the previous chunk, whichever is more, up to
// outChunkRows: chunks are never regrown, and a result of a few rows is
// not charged a full-sized chunk.
func (m *manager) emit(srcs []*tuple.Batch, ids [][]int32, n int) {
	m.stats.ResultRows += n
	for lo := 0; lo < n; {
		var tail *tuple.Batch
		if k := len(m.out); k > 0 {
			tail = m.out[k-1]
		}
		if tail == nil || tail.Full() {
			room := n - lo
			if tail != nil {
				room = max(room, 2*tail.Cap())
			}
			tail = tuple.NewBatch(m.schema, min(room, outChunkRows))
			m.out = append(m.out, tail)
		}
		hi := min(n, lo+tail.Cap()-tail.Len())
		tail.AppendJoined(srcs, ids, lo, hi)
		lo = hi
	}
}

// filterRows applies the relation's local predicate.
func filterRows(pred expr.Expr, rows []tuple.Row) ([]tuple.Row, error) {
	if pred == nil {
		return rows, nil
	}
	var out []tuple.Row
	for _, r := range rows {
		keep, err := expr.EvalBool(pred, r)
		if err != nil {
			return nil, err
		}
		if keep {
			out = append(out, r)
		}
	}
	return out, nil
}
