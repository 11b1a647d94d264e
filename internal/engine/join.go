package engine

import (
	"slices"
	"sync"

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
// With Parallelize(dop > 1) dop workers join row ranges of each probe batch
// at once against that same read-only build side: the serial join's output,
// batched differently.
type HashJoin struct {
	left, right         Iterator
	leftKeys, rightKeys []int
	schema              *tuple.Schema
	dop                 int

	// build holds every build row and index chains them by key hash; both
	// are only read once Open returns.
	build tuple.ChunkedBatch
	index tuple.HashIndex

	// hashes is the key-hash scratch: of one build range while Open indexes
	// it, then of the probe batch being joined. cur is the serial probe's
	// place in that batch.
	probeBatch *tuple.Batch
	hashes     []uint64
	cur        probeCursor

	// Parallel probe: per-worker cursors and reused output batches, and the
	// non-empty ones still to serve for the current probe batch. A queued
	// batch is reset only once the queue has drained and the next probe
	// batch arrives, honoring the batch-validity contract.
	parCur   []probeCursor
	parOut   []*tuple.Batch
	parQueue []*tuple.Batch

	out    *tuple.Batch
	ostats *OpStats
}

// probeCursor is one prober's place in a probe batch — the next build row
// of probe row's chain to look at, -1 once the chain is exhausted — and its
// scratch: the (build row, probe row) pairs of the gather in progress, the
// build rows located in their chunks.
type probeCursor struct {
	row   int
	match int32
	at    []tuple.Loc
	pids  []int32
}

// NewHashJoin joins left and right on equality of the given key columns
// (by position in each side's schema).
func NewHashJoin(left, right Iterator, leftKeys, rightKeys []int) *HashJoin {
	if len(leftKeys) != len(rightKeys) || len(leftKeys) == 0 {
		panic("engine: hash join needs equal, non-empty key lists")
	}
	return &HashJoin{
		left: left, right: right,
		leftKeys: leftKeys, rightKeys: rightKeys,
		schema: left.Schema().Concat(right.Schema()),
	}
}

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

// setParallelism implements parallelizable.
func (j *HashJoin) setParallelism(dop int) { j.dop = normDOP(dop) }

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
	j.probeBatch, j.parQueue = nil, nil
	return j.right.Open()
}

// buildSide drains the build input into j.build — one copy of each batch's
// typed vectors, never moved again — then indexes it a range of at most
// DefaultBatchSize rows at a time, last range first, hashed into j.hashes.
func (j *HashJoin) buildSide() error {
	j.build.Reset(j.left.Schema())
	for {
		b, ok, err := j.left.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		j.build.Append(b)
	}
	j.index.Reset(j.build.Len())
	for hi := j.build.Len(); hi > 0; {
		lo := max(hi-DefaultBatchSize, 0)
		j.hashes = j.build.HashRange(j.leftKeys, lo, hi, j.hashes)
		j.index.Insert(lo, j.hashes)
		hi = lo
	}
	return nil
}

// probe joins probe rows [c.row, end) of b, resuming where c stands, and
// gathers the matches into out, a batch of row pairs at a time. With stopFull
// it returns once out is full, to resume on the next call; without, out grows.
func (j *HashJoin) probe(c *probeCursor, b *tuple.Batch, end int, out *tuple.Batch, stopFull bool) {
	for c.row < end && !(stopFull && out.Full()) {
		room := DefaultBatchSize
		if stopFull {
			room = out.Cap() - out.Len()
		}
		at, pids := slices.Grow(c.at[:0], room), slices.Grow(c.pids[:0], room)
		for c.row < end && len(at) < room {
			for ; c.match >= 0 && len(at) < room; c.match = j.index.Next(c.match) {
				at, pids = append(at, j.build.Loc(c.match)), append(pids, int32(c.row))
			}
			if c.match < 0 {
				if c.row++; c.row < end {
					c.match = j.index.First(j.hashes[c.row])
				}
			}
		}
		// A bucket chains rows of other keys too: keep the equal ones.
		n := tuple.MatchKeys(&j.build, j.leftKeys, at, b, j.rightKeys, pids)
		c.at, c.pids = at, pids
		out.AppendJoinedChunked(&j.build, at[:n], b, pids[:n])
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
		if j.dop > 1 && len(j.parQueue) > 0 {
			b := j.parQueue[0]
			j.parQueue = j.parQueue[1:]
			return b, true, nil
		}
		if j.dop <= 1 && j.probeBatch != nil {
			j.probe(&j.cur, j.probeBatch, j.probeBatch.Len(), j.out, true)
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
		if j.dop > 1 {
			j.probeParallel(b)
			continue
		}
		// An output batch that holds rows keeps its size until it is handed
		// out; an empty one follows the probe side's batch size.
		if j.out == nil || j.out.Len() == 0 {
			sizedOutput(&j.out, j.schema, b.Len())
		}
		j.cur.row, j.cur.match = 0, j.index.First(j.hashes[0])
	}
}

// minParallelProbeRows is the probe-batch size below which forking
// workers costs more than it saves; smaller batches probe inline on the
// calling goroutine.
const minParallelProbeRows = 256

// probeParallel joins one probe batch against the build side with dop
// workers over contiguous row ranges, queueing the non-empty per-worker
// outputs in range order. Workers only read the shared batches, hashes and
// index; each gathers into its own reused output batch, so steady-state
// probing allocates nothing.
func (j *HashJoin) probeParallel(b *tuple.Batch) {
	if j.parOut == nil {
		j.parCur, j.parOut = make([]probeCursor, j.dop), make([]*tuple.Batch, j.dop)
		for w := range j.parOut {
			j.parOut[w] = tuple.NewBatch(j.schema, min(b.Len(), DefaultBatchSize))
		}
	}
	workers := j.dop
	if b.Len() < minParallelProbeRows {
		workers = 1
	}
	var wg sync.WaitGroup
	used := 0
	splitRange(b.Len(), workers, func(part, start, end int) {
		used++
		c, out := &j.parCur[part], j.parOut[part]
		out.Reset()
		c.row, c.match = start, j.index.First(j.hashes[start])
		if workers == 1 {
			j.probe(c, b, end, out, false)
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			j.probe(c, b, end, out, false)
		}()
	})
	wg.Wait()
	j.parQueue = j.parQueue[:0]
	for _, out := range j.parOut[:used] {
		if out.Len() > 0 {
			j.parQueue = append(j.parQueue, out)
		}
	}
}

// Close implements Iterator.
func (j *HashJoin) Close() error {
	j.build, j.index = tuple.ChunkedBatch{}, tuple.HashIndex{}
	j.probeBatch = nil
	j.parCur, j.parOut, j.parQueue = nil, nil, nil
	return j.right.Close()
}
