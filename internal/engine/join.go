package engine

import (
	"slices"

	"repro/internal/tuple"
)

// HashJoin is a blocking binary equi-join: it fully materializes the build
// (left) side into a hash table on Open, then streams the probe (right)
// side. This is the classical engine behaviour the paper contrasts with
// MJoin: the build side is pulled in its entirety before the first probe
// tuple is requested, pinning the storage access order to the plan shape.
//
// The build side is kept the way it arrives, as typed column vectors: one
// copy of every build row in a tuple.ChunkedBatch, chained by a HashIndex
// that is filled one hashed range at a time. A probe batch is hashed up
// front; probing walks the chains collecting (build row, probe row) pairs,
// verifies the pairs' keys column against column, and gathers the
// survivors into the output batch column by column — in probe row order,
// then build order. Neither side materializes a row.
//
// Like a PostgreSQL join node's target list, a join carries only the
// columns read above it (NewHashJoinCarry): the build store keeps just the
// carried left columns and the left keys, and the gather reads just the
// carried columns. A join that carries everything runs the same code over
// the identity selection.
type HashJoin struct {
	left, right Iterator
	// The shape's fields read as the join's own (joinShape aliases
	// JoinShape so that the embedded field stays unexported).
	*joinShape

	// build holds every build row and index chains them by key hash; both
	// are only read once Open returns.
	build tuple.ChunkedBatch
	index tuple.HashIndex

	// hashes is the key-hash scratch: of one build range while Open indexes
	// it, then of probeBatch, the probe batch being joined.
	probeBatch *tuple.Batch
	hashes     []uint64
	// row and match are the probe's place in probeBatch: the next build row
	// of probe row's chain to look at, -1 once the chain is exhausted. at and
	// pids are the (build row, probe row) pairs of the gather in progress,
	// the build rows located in their chunks.
	row   int
	match int32
	at    []tuple.Loc
	pids  []int32

	out    *tuple.Batch
	ostats *OpStats
}

// JoinShape is what a hash join derives from its inputs' schemas, keys and
// carried columns: its output schema, its build store and where the output
// reads its columns. It is read-only once built, so a compiled plan keeps
// it and every run's join shares it (ShapedJoin).
type JoinShape struct {
	leftKeys, rightKeys []int
	schema              *tuple.Schema

	// store is the build store's schema: the left columns keep lists — the
	// carried ones and the keys, ascending — of which storeKeys are the
	// keys. bpick and ppick are the carried columns' places in the store
	// and in a probe batch: an output row is the one, then the other.
	store                         *tuple.Schema
	keep, storeKeys, bpick, ppick []int
}

type joinShape = JoinShape

// NewHashJoin joins left and right on equality of the given key columns
// (by position in each side's schema), carrying every column of both.
func NewHashJoin(left, right Iterator, leftKeys, rightKeys []int) *HashJoin {
	return NewHashJoinCarry(left, right, leftKeys, rightKeys, nil)
}

// NewHashJoinCarry is NewHashJoin carrying only the columns carry lists, by
// position in the left schema followed by the right one, ascending (nil:
// all of them); the carried columns' names must differ.
func NewHashJoinCarry(left, right Iterator, leftKeys, rightKeys, carry []int) *HashJoin {
	j := ShapedJoin(left, right, NewJoinShape(left.Schema(), right.Schema(), leftKeys, rightKeys, carry))
	return &j
}

// ShapedJoin is a hash join of left and right, whose schemas are the ones
// sh was built for, returned by value for a caller that allocates a plan's
// joins together.
func ShapedJoin(left, right Iterator, sh *JoinShape) HashJoin {
	return HashJoin{left: left, right: right, joinShape: sh}
}

// NewJoinShape is the shape of NewHashJoinCarry's join of inputs with
// schemas ls and rs.
func NewJoinShape(ls, rs *tuple.Schema, leftKeys, rightKeys, carry []int) *JoinShape {
	if len(leftKeys) != len(rightKeys) || len(leftKeys) == 0 {
		panic("engine: hash join needs equal, non-empty key lists")
	}
	wl, w := ls.Len(), ls.Len()+rs.Len()
	sh := &JoinShape{leftKeys: leftKeys, rightKeys: rightKeys, store: ls}
	var cols []tuple.Column
	if carry == nil {
		sh.schema = ls.Concat(rs)
	} else {
		cols = make([]tuple.Column, 0, len(carry))
	}
	// One slab backs keep, storeKeys and the picks.
	ints := make([]int, wl+len(leftKeys)+w)
	sh.keep, sh.storeKeys = ints[:0:wl], ints[wl:wl+len(leftKeys)]
	picks, nb := ints[wl+len(leftKeys):wl+len(leftKeys)], 0
	for p, next := 0, 0; p < w; p++ {
		carried := carry == nil || next < len(carry) && carry[next] == p
		if carried && carry != nil {
			next++
			if p < wl {
				cols = append(cols, ls.Cols[p])
			} else {
				cols = append(cols, rs.Cols[p-wl])
			}
		}
		if p >= wl {
			if carried {
				picks = append(picks, p-wl)
			}
			continue
		}
		if carried {
			picks, nb = append(picks, len(sh.keep)), nb+1
		}
		if carried || slices.Contains(leftKeys, p) {
			sh.keep = append(sh.keep, p)
		}
	}
	sh.bpick, sh.ppick = picks[:nb], picks[nb:]
	for k, lk := range leftKeys {
		sh.storeKeys[k] = slices.Index(sh.keep, lk)
	}
	if cols != nil {
		sh.schema = tuple.NewSchema(cols...)
	}
	if len(sh.keep) < wl {
		sh.store = ls.Project(sh.keep)
	}
	return sh
}

// Schema returns the output schema of the joins of this shape.
func (sh *JoinShape) Schema() *tuple.Schema { return sh.schema }

// JoinOn resolves key column names on both sides and builds the join.
func JoinOn(left, right Iterator, on [][2]string) *HashJoin {
	lk := make([]int, len(on))
	rk := make([]int, len(on))
	for i, pair := range on {
		lk[i] = left.Schema().MustColIndex(pair[0])
		rk[i] = right.Schema().MustColIndex(pair[1])
	}
	return NewHashJoin(left, right, lk, rk)
}

// Schema implements Iterator.
func (j *HashJoin) Schema() *tuple.Schema { return j.schema }

// Open implements Iterator: drains the build side and indexes it.
func (j *HashJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	if err := j.buildSide(); err != nil {
		j.left.Close()
		return err
	}
	if err := j.left.Close(); err != nil {
		return err
	}
	j.probeBatch = nil
	return j.right.Open()
}

// buildSide drains the build input into j.build — one copy of each batch's
// kept columns, never moved again — then indexes it a range of at most
// DefaultBatchSize rows at a time, last range first, hashed into j.hashes.
func (j *HashJoin) buildSide() error {
	j.build.Reset(j.store)
	for {
		b, ok, err := j.left.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		j.build.Append(b, j.keep)
	}
	j.index.Reset(j.build.Len())
	for hi := j.build.Len(); hi > 0; {
		lo := max(hi-DefaultBatchSize, 0)
		j.hashes = j.build.HashRange(j.storeKeys, lo, hi, j.hashes)
		j.index.Insert(lo, j.hashes)
		hi = lo
	}
	return nil
}

// probe joins probeBatch into j.out from where the last call stopped, a
// batch of row pairs at a time, and returns once the probe batch is done or
// j.out is full, to resume on the next call.
func (j *HashJoin) probe() {
	b, out := j.probeBatch, j.out
	for j.row < b.Len() && !out.Full() {
		room := out.Cap() - out.Len()
		at, pids := tuple.Resize(j.at, room)[:0], tuple.Resize(j.pids, room)[:0]
		for j.row < b.Len() && len(at) < room {
			for ; j.match >= 0 && len(at) < room; j.match = j.index.Next(j.match) {
				at, pids = append(at, j.build.Loc(j.match)), append(pids, int32(j.row))
			}
			if j.match < 0 {
				if j.row++; j.row < b.Len() {
					j.match = j.index.First(j.hashes[j.row])
				}
			}
		}
		// A bucket chains rows of other keys too: keep the equal ones.
		n := tuple.MatchKeys(&j.build, j.storeKeys, at, b, j.rightKeys, pids)
		j.at, j.pids = at, pids
		out.AppendJoinedChunked(&j.build, j.bpick, at[:n], b, j.ppick, pids[:n])
	}
}

// NextBatch implements Iterator: emits up to a batch of joined rows.
func (j *HashJoin) NextBatch() (*tuple.Batch, bool, error) {
	if j.ostats != nil {
		return timedBatch(j.ostats, j.nextBatch)
	}
	return j.nextBatch()
}

func (j *HashJoin) nextBatch() (*tuple.Batch, bool, error) {
	if j.out != nil {
		j.out.Reset()
	}
	for {
		if j.probeBatch != nil {
			j.probe()
			if j.out.Full() {
				return j.out, true, nil
			}
		}
		b, ok, err := j.right.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			j.probeBatch = nil
			if j.out != nil && j.out.Len() > 0 {
				return j.out, true, nil
			}
			return nil, false, nil
		}
		j.probeBatch = b
		j.hashes = b.HashColumns(j.rightKeys, j.hashes)
		// An output batch that holds rows keeps its size until it is handed
		// out; an empty one follows the probe side's batch size.
		if j.out == nil || j.out.Len() == 0 {
			sizedOutput(&j.out, j.schema, b.Len())
		}
		j.row, j.match = 0, j.index.First(j.hashes[0])
	}
}

// Close implements Iterator, releasing the build store, index, output
// batch and scratch.
func (j *HashJoin) Close() error {
	j.build.Reset(j.store)
	j.index.Release()
	tuple.Release(j.hashes)
	tuple.Release(j.at)
	tuple.Release(j.pids)
	j.probeBatch, j.hashes, j.at, j.pids = nil, nil, nil, nil
	return closeOutput(&j.out, j.right)
}
