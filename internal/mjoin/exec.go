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
// Nothing on this path materializes a row, or carries a column nothing
// above it reads:
//
//   - An arrival goes through its relation's leg kernel (engine.Leg): only
//     Relation.Cols are decoded, the filter becomes a selection vector, and
//     the cache entry holds the survivors of the columns live above the
//     leg — those Query.Out names, the left keys of later joins and the
//     relation's own key — allocated at the survivor count; an unfiltered
//     arrival's entry simply owns those columns' decoded vectors, or views
//     them when a segment cache memoized them (decodeArrival). A column
//     only the filter reads goes no further.
//   - A partial tuple is one int32 row id per relation joined so far, held
//     in struct-of-arrays scratch. Each chain level reads its left key
//     straight from the cached column of the relation that owns it, walks
//     the matching bucket of the next relation's index in ascending row
//     order, and appends the ids of the matches (probeLevels).
//   - Only the partials that survive the last level are gathered, column
//     by column and only the columns Query.Out names, into output chunks
//     (emit). The Stream hands each chunk on as it completes and releases
//     it to the pool after, where the next chunk is drawn from.
//
// So a run allocates nothing per row, and in proportion to its cache rather
// than to its arrivals or its result: an evicted entry hands its vectors
// and index arrays back to the working-memory pool (tuple.Release), and the
// next arrival, of any relation, decodes and indexes into them; the probe
// chain's id arrays come from and grow through the same pool. The state
// manager's bookkeeping is dense arrays sized when the Stream is built: once
// warm, its per-arrival, per-eviction and per-cycle steps allocate nothing.

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
// undecoded; any other is decoded, counted and admitted to the cache. It
// fails on a corrupt arrival (lazy-store block decode), mirroring the
// vanilla scan path.
func (m *Stream) processArrival(seg *segment.Segment) error {
	m.stats.Arrivals++
	rel, o := m.number(seg.ID)
	if o < 0 {
		panic(fmt.Sprintf("mjoin: arrival of object %v not in query %s", seg.ID, m.q.ID))
	}
	if m.pendingCount[o] == 0 {
		return nil
	}
	start := time.Now()
	batch, by, err := m.decodeArrival(rel, seg)
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
	m.admitArrival(o, rel, batch)
	return nil
}

// decodeArrival turns one delivered segment into the batch a cache entry
// holds — the relation's filtered rows, only the columns read above the
// leg — by running the relation's leg kernel over it
// (engine.Leg.ReadSegment) with the relation's decode buffer and filter
// scratch: a filtered arrival is copied out of the buffer at the survivor
// count, an unfiltered lazy one owns its decoded vectors, drawn from the
// working-memory pool, or shares a memoized segment's as a read-only view
// that is never released. Decode errors (lazy stores validate headers at
// build time, block contents on first decode) and filter errors surface as
// errors, like the vanilla scan path.
func (m *Stream) decodeArrival(rel int, seg *segment.Segment) (*tuple.Batch, engine.ScanBytes, error) {
	batch, by, err := m.probe.legs[rel].ReadSegment(seg, &m.legScratch[rel])
	if err != nil {
		err = fmt.Errorf("mjoin: arrival %v: %w", seg.ID, err)
	}
	return batch, by, err
}

// buildEntry fills e, an empty cache slot, with an arrival of relation
// rel, hashing the whole segment's key column in one vectorized pass into
// an index whose arrays come off the working-memory pool.
func (m *Stream) buildEntry(e *cacheEntry, rel int, batch *tuple.Batch) {
	e.batch, e.keyIdx = batch, m.probe.keyCol[rel]
	if rel == 0 {
		return
	}
	m.hashBuf = batch.HashColumns(m.probe.keyCol[rel:rel+1], m.hashBuf)
	e.index.Build(m.hashBuf)
}

// release hands the entry's index arrays and vectors (not a view's) back
// and empties the slot.
func (e *cacheEntry) release() {
	e.batch.Release()
	e.index.Release()
	e.batch = nil
}

// probePlan is everything execution derives from a valid query, once: the
// relations' legs, how far up the plan each of their columns is read, and —
// resolved against the legs' narrow schemas — where each join reads its
// keys, what the output gathers and the pull plan's stages. Once built it
// is read-only: every run of the query shares it.
type probePlan struct {
	// q is the query the plan was compiled for.
	q *Query
	// legs[r] is relation r's leg: Cols decoded, Filter applied, and the
	// columns read above it handed on.
	legs []*engine.Leg
	// out is the output schema: the leg schemas, concatenated, restricted
	// to Query.Out.
	out *tuple.Schema
	// need holds one entry per column a relation decodes, relation r's from
	// off[r] on: the last stage that reads the column — n, the relation
	// count, when the output does, else the last join j whose key it is
	// (join j attaches relation j), -1 when nothing above its leg does. So
	// leg r hands on the columns with need ≥ r, and join i carries those
	// with need > i: Out and the left keys of the joins after it.
	off, need []int
	// leftRel[i-1] and leftCol[i-1] are the relation (< i) and the column
	// within its leg that Joins[i-1].LeftCol names; leftG[i-1] is that
	// column's entry in need.
	leftRel, leftCol, leftG []int
	// keyCol[r] is the column of leg r that the relation's cache-entry
	// index is keyed on (RightCol of its JoinCond); -1 for relation 0.
	keyCol []int
	// picks[r] lists the columns of leg r the output gathers.
	picks [][]int
	// stages are the pull plan's joins, compiled (stages[i-1] attaches
	// relation i), subplans the size of the subplan lattice; unrunnable,
	// when non-nil, is why MJoin cannot run the query though the pull
	// engine can.
	stages     []*engine.JoinShape
	subplans   int
	unrunnable error
}

// buildProbePlan validates the query's structure and resolves it.
func buildProbePlan(q *Query) (*probePlan, error) {
	if len(q.Relations) == 0 {
		return nil, fmt.Errorf("mjoin: query %s has no relations", q.ID)
	}
	if len(q.Joins) != len(q.Relations)-1 {
		return nil, fmt.Errorf("mjoin: query %s has %d relations but %d join conditions", q.ID, len(q.Relations), len(q.Joins))
	}
	n, w := len(q.Relations), 0
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
		w += rel.width()
	}
	// One slab backs the plan's int lists, the legs' output columns and the
	// output's picks among them.
	ints := make([]int, 5*n+3*w)
	pp := &probePlan{q: q, legs: make([]*engine.Leg, 0, n), picks: make([][]int, n)}
	pp.off, ints = ints[:n+1], ints[n+1:]
	pp.need, ints = ints[:w], ints[w:]
	pp.keyCol, ints = ints[:n], ints[n:]
	pp.leftRel, pp.leftCol, pp.leftG, ints = ints[:n-1], ints[n-1:2*n-2], ints[2*n-2:3*n-3], ints[3*n-3:]
	outs, picks := ints[:0:w], ints[w:w]
	for r := range q.Relations {
		pp.off[r+1] = pp.off[r] + q.Relations[r].width()
	}
	for g := range pp.need {
		pp.need[g] = -1
		if q.Out == nil {
			pp.need[g] = n
		}
	}
	for _, name := range q.Out {
		g := pp.column(q, name, 0, n)
		if g < 0 {
			return nil, fmt.Errorf("mjoin: query %s: output column %q is not among the columns its relations read", q.ID, name)
		}
		pp.need[g] = n
	}
	for i, jc := range q.Joins {
		if jc.Rel != i+1 {
			return nil, fmt.Errorf("mjoin: join %d must attach relation %d, got %d", i, i+1, jc.Rel)
		}
		g, k := pp.column(q, jc.LeftCol, 0, i+1), pp.column(q, jc.RightCol, i+1, i+2)
		if g < 0 {
			return nil, fmt.Errorf("mjoin: join %d: column %q not in accumulated schema of relations 0..%d", i, jc.LeftCol, i)
		}
		if k < 0 {
			return nil, fmt.Errorf("mjoin: join %d: column %q not among the columns read from relation %q", i, jc.RightCol, q.Relations[i+1].Table.Name)
		}
		pp.leftG[i], pp.keyCol[i+1] = g, k
		pp.need[g], pp.need[k] = max(pp.need[g], i+1), max(pp.need[k], i+1)
	}
	// Each leg hands on what is read at or above it; the output gathers
	// what the output reads.
	cols := make([]tuple.Column, 0, w)
	for r := range q.Relations {
		rel := &q.Relations[r]
		start, pstart := len(outs), len(picks)
		for p := range rel.width() {
			switch need := pp.need[pp.off[r]+p]; {
			case need < r:
				continue
			case need == n:
				picks = append(picks, len(outs)-start)
				cols = append(cols, rel.Table.Schema.Cols[rel.col(p)])
			}
			outs = append(outs, rel.col(p))
		}
		var out []int
		if len(outs)-start < rel.width() {
			out = outs[start:len(outs):len(outs)]
		}
		pp.legs = append(pp.legs, engine.NewLeg(rel.Table.Schema, rel.Cols, out, rel.Filter))
		pp.picks[r] = picks[pstart:len(picks):len(picks)]
	}
	pp.out = pp.legs[0].Schema()
	if n > 1 {
		for i, c := range cols {
			for _, d := range cols[:i] {
				if d.Name == c.Name {
					return nil, fmt.Errorf("mjoin: query %s outputs two columns named %q", q.ID, c.Name)
				}
			}
		}
		pp.out = tuple.NewSchema(cols...)
	}
	pp.keyCol[0] = -1
	pp.stages = make([]*engine.JoinShape, n-1)
	carry, left := make([]int, 0, (n-1)*w), pp.legs[0].Schema()
	for i := range q.Joins {
		g, r := pp.leftG[i], 0
		for pp.off[r+1] <= g {
			r++
		}
		pp.leftRel[i], pp.leftCol[i] = r, pp.place(r, g)
		pp.keyCol[i+1] = pp.place(i+1, pp.keyCol[i+1])
		// Join i's inputs are the columns of relations up to i+1 read at or
		// above it; it carries those read above it.
		start, p, leftKey := len(carry), 0, 0
		for h, need := range pp.need[:pp.off[i+2]] {
			if need <= i {
				continue
			}
			if h == g {
				leftKey = p
			}
			if need > i+1 {
				carry = append(carry, p)
			}
			p++
		}
		var carried []int // nil: join i carries everything
		if len(carry)-start < p {
			carried = carry[start:len(carry):len(carry)]
		} else {
			carry = carry[:start]
		}
		pp.stages[i] = engine.NewJoinShape(left, pp.legs[i+1].Schema(), []int{leftKey}, []int{pp.keyCol[i+1]}, carried)
		left = pp.stages[i].Schema()
	}
	pp.subplans, pp.unrunnable = q.NumSubplans()
	for r := 1; r < n && pp.unrunnable == nil; r++ {
		name := q.Relations[r].Table.Name
		if slices.ContainsFunc(q.Relations[:r], func(p Relation) bool { return p.Table.Name == name }) {
			pp.unrunnable = fmt.Errorf("mjoin: query %s reads table %q in two relations", q.ID, name)
		}
	}
	return pp, nil
}

// column returns, as an index into need, the column called name among those
// relations [from, to) decode, or -1 when none of them does.
func (pp *probePlan) column(q *Query, name string, from, to int) int {
	for r := from; r < to; r++ {
		rel := &q.Relations[r]
		ci, ok := rel.Table.Schema.ColIndex(name)
		if !ok {
			continue
		}
		if rel.Cols != nil {
			ci = slices.Index(rel.Cols, ci)
		}
		if ci >= 0 {
			return pp.off[r] + ci
		}
	}
	return -1
}

// place returns where column g of relation r sits among the columns r's leg
// hands on.
func (pp *probePlan) place(r, g int) int {
	at := 0
	for _, need := range pp.need[pp.off[r]:g] {
		if need >= r {
			at++
		}
	}
	return at
}

// probeScratch is the reusable probe-chain state: the partial tuples of the
// level being read and of the level being written, as one row-id array per
// relation (cur[r][k] is partial k's row in relation r's cached batch). The
// arrays come from the working-memory pool, grow through it, are
// ping-ponged across chain levels and go back when the run ends; the two
// outer arrays are kept across runs, as wide as the widest query so far.
type probeScratch struct {
	cur, next [][]int32
}

// executeSubplan joins subplan i's cached segments by probing the
// per-object hash indexes left to right, a chunk of root rows at a time,
// and emits the surviving tuples.
func (m *Stream) executeSubplan(i int) {
	entries, srcs := m.entries[:0], m.srcs[:0]
	empty := false
	for r := range m.dims {
		e := &m.slots[m.object(i, r)] // cached: its batch is not nil
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
	if len(sc.cur) < len(entries) { // a wider query than the Stream ran before
		sc.cur, sc.next = make([][]int32, len(entries)), make([][]int32, len(entries))
	}
	cur, next := sc.cur, sc.next
	cur[0] = tuple.Resize(cur[0], end-start)[:0]
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
			next[r] = tuple.Resize(next[r], len(cur[leftRel]))[:0]
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
				next[r] = push(next[r], cur[r][k])
			}
			next[depth] = push(next[depth], mi)
		}
	}
}

// push appends id to ids, moving them first to an array from the
// working-memory pool when theirs is full: an array append grew is one the
// pool never handed out.
func push(ids []int32, id int32) []int32 {
	if len(ids) == cap(ids) {
		ids = regrow(ids)
	}
	return append(ids, id)
}

// regrow moves ids to a pool array twice the size and releases theirs.
func regrow(ids []int32) []int32 {
	grown := tuple.Take[int32](max(2*len(ids), 16))[:len(ids)]
	copy(grown, ids)
	tuple.Release(ids)
	return grown
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
			m.chunkCap = min(max(n-lo, 2*m.chunkCap), outChunkRows)
			tail = tuple.NewBatch(m.probe.out, m.chunkCap)
			m.out = append(m.out, tail)
		}
		hi := min(n, lo+tail.Cap()-tail.Len())
		tail.AppendJoined(srcs, m.probe.picks, ids, lo, hi)
		lo = hi
	}
}
