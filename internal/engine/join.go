package engine

import (
	"fmt"
	"sync"

	"repro/internal/tuple"
)

// HashJoin is a blocking binary equi-join: it fully materializes the build
// (left) side into a hash table on Open, then streams the probe (right)
// side. This is the classical engine behaviour the paper contrasts with
// MJoin: the build side is pulled in its entirety before the first probe
// tuple is requested, pinning the storage access order to the plan shape.
//
// Both sides move batch-at-a-time: the build side is hashed with one
// vectorized pass per batch, and probe batches are hashed up front so the
// inner match loop does no hashing at all.
//
// With Parallelize(dop > 1) both phases use the morsel pool: build
// batches are scattered by key hash into per-worker partitions that are
// then merged into per-partition tables concurrently, and each probe
// batch is split into row ranges joined by dop workers at once. The
// output multiset is identical to the serial join's; only row order may
// differ.
type HashJoin struct {
	left, right         Iterator
	leftKeys, rightKeys []int
	schema              *tuple.Schema
	dop                 int

	// index chains the indices into buildRows by key hash (serial build).
	index     tuple.HashIndex
	buildRows []tuple.Row

	// Parallel build state: partition p holds the build rows whose key
	// hash satisfies h % len(partRows) == p, with partTables[p] mapping
	// hash -> indices into partRows[p].
	partRows   [][]tuple.Row
	partTables []map[uint64][]int32

	// probe-side cursor state (serial probe)
	probeBatch  *tuple.Batch
	probeHashes []uint64
	probeIdx    int
	probeRow    tuple.Row
	// match is the next build row of the probe row's bucket to look at,
	// -1 once the chain is exhausted.
	match int32

	// Parallel probe output: per-worker reused columnar buffers plus the
	// queue of non-empty ones awaiting service for the current probe
	// batch. A queued buffer is only reset after the whole queue drains
	// and the next probe batch arrives, honoring the batch-validity
	// contract.
	parOut   []*tuple.Batch
	parQueue []*tuple.Batch

	out    *tuple.Batch
	outBuf tuple.Row
	ostats *OpStats
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

func keysEqual(a tuple.Row, ak []int, b tuple.Row, bk []int) bool {
	for i := range ak {
		av, bv := a[ak[i]], b[bk[i]]
		if av.K != bv.K || !tuple.Equal(av, bv) {
			return false
		}
	}
	return true
}

// Open implements Iterator: drains the build side batch-at-a-time, hashing
// each batch's key columns in one vectorized pass.
func (j *HashJoin) Open() error {
	if err := j.left.Open(); err != nil {
		return err
	}
	var buildErr error
	if j.dop > 1 {
		buildErr = j.buildParallel()
	} else {
		buildErr = j.buildSerial()
	}
	if buildErr != nil {
		j.left.Close()
		return buildErr
	}
	if err := j.left.Close(); err != nil {
		return err
	}
	j.probeBatch, j.probeIdx, j.match = nil, 0, -1
	j.parQueue = nil
	return j.right.Open()
}

// buildSerial is the DOP=1 build: one goroutine hashes every build batch
// and indexes the collected rows once the side is drained.
func (j *HashJoin) buildSerial() error {
	j.buildRows = j.buildRows[:0]
	var hashes, all []uint64 // of the current batch, of every build row
	for {
		b, ok, err := j.left.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			j.index.Build(all)
			return nil
		}
		hashes = b.HashColumns(j.leftKeys, hashes)
		all = append(all, hashes...)
		j.buildRows = b.AppendRows(j.buildRows)
	}
}

// buildPart is one worker's slice of one hash partition: rows and their
// precomputed key hashes, appended contention-free during the scatter
// phase.
type buildPart struct {
	hashes []uint64
	rows   []tuple.Row
}

// buildParallel is the DOP>1 build. Phase 1 scatters: the morsel pool
// hashes each build batch and spreads its rows over P = 4*dop hash
// partitions, each worker writing only its own partition slices. Phase 2
// merges: workers claim whole partitions and fuse the per-worker slices
// into that partition's table, so no two goroutines ever touch the same
// map.
func (j *HashJoin) buildParallel() error {
	numParts := 4 * j.dop
	parts := make([][]buildPart, j.dop)
	for w := range parts {
		parts[w] = make([]buildPart, numParts)
	}
	hashBufs := make([][]uint64, j.dop)
	err := runMorsels(j.left, j.dop, func(w int, b *tuple.Batch) error {
		hashBufs[w] = b.HashColumns(j.leftKeys, hashBufs[w])
		rows := b.Rows()
		mine := parts[w]
		for i, row := range rows {
			h := hashBufs[w][i]
			p := &mine[int(h%uint64(numParts))]
			p.hashes = append(p.hashes, h)
			p.rows = append(p.rows, row)
		}
		return nil
	})
	if err != nil {
		return err
	}
	j.partRows = make([][]tuple.Row, numParts)
	j.partTables = make([]map[uint64][]int32, numParts)
	total := 0
	for w := range parts {
		for p := range parts[w] {
			total += len(parts[w][p].rows)
		}
	}
	mergeStripe := func(w, stride int) {
		for p := w; p < numParts; p += stride {
			n := 0
			for ww := range parts {
				n += len(parts[ww][p].rows)
			}
			if n == 0 {
				continue
			}
			rows := make([]tuple.Row, 0, n)
			table := make(map[uint64][]int32, n)
			for ww := range parts {
				bp := &parts[ww][p]
				for i, row := range bp.rows {
					table[bp.hashes[i]] = append(table[bp.hashes[i]], int32(len(rows)))
					rows = append(rows, row)
				}
			}
			j.partRows[p], j.partTables[p] = rows, table
		}
	}
	// A small build side is merged inline: spinning up goroutines to
	// build a few dozen map entries costs more than the maps.
	if total < DefaultBatchSize {
		mergeStripe(0, 1)
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < j.dop; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mergeStripe(w, j.dop)
		}(w)
	}
	wg.Wait()
	return nil
}

// loadProbeRow positions the match cursor on probe row i of the current
// batch.
func (j *HashJoin) loadProbeRow(i int) {
	j.probeIdx = i
	j.probeRow = j.probeBatch.AppendRowTo(j.probeRow[:0], i)
	j.match = j.index.First(j.probeHashes[i])
}

// NextBatch implements Iterator: emits up to a batch of joined rows.
func (j *HashJoin) NextBatch() (*tuple.Batch, bool, error) {
	if j.ostats != nil {
		return timedBatch(j.ostats, j.nextBatch)
	}
	return j.nextBatch()
}

func (j *HashJoin) nextBatch() (*tuple.Batch, bool, error) {
	if j.dop > 1 {
		return j.nextBatchParallel()
	}
	if j.out != nil {
		j.out.Reset()
	}
	for {
		for j.probeBatch != nil && j.probeIdx < j.probeBatch.Len() {
			for j.match >= 0 {
				build := j.buildRows[j.match]
				j.match = j.index.Next(j.match)
				if !keysEqual(build, j.leftKeys, j.probeRow, j.rightKeys) {
					continue // another key of the same bucket
				}
				j.outBuf = append(j.outBuf[:0], build...)
				j.outBuf = append(j.outBuf, j.probeRow...)
				j.out.AppendRow(j.outBuf)
				if j.out.Full() {
					return j.out, true, nil
				}
			}
			if j.probeIdx+1 < j.probeBatch.Len() {
				j.loadProbeRow(j.probeIdx + 1)
			} else {
				j.probeIdx = j.probeBatch.Len()
			}
		}
		b, ok, err := j.right.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			if j.out != nil && j.out.Len() > 0 {
				return j.out, true, nil
			}
			return nil, false, nil
		}
		// An output batch that holds rows keeps its size until it is handed
		// out; an empty one follows the probe side's batch size.
		if j.out == nil || j.out.Len() == 0 {
			sizedOutput(&j.out, j.schema, b.Len())
		}
		j.probeBatch = b
		j.probeHashes = b.HashColumns(j.rightKeys, j.probeHashes)
		j.loadProbeRow(0)
	}
}

// nextBatchParallel serves the DOP>1 probe: each probe batch is hashed
// once, split into contiguous row ranges joined by dop workers at once,
// and the non-empty per-worker output batches are served one per call,
// in range order.
func (j *HashJoin) nextBatchParallel() (*tuple.Batch, bool, error) {
	for {
		if len(j.parQueue) > 0 {
			b := j.parQueue[0]
			j.parQueue = j.parQueue[1:]
			return b, true, nil
		}
		b, ok, err := j.right.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, nil
		}
		j.probeHashes = b.HashColumns(j.rightKeys, j.probeHashes)
		j.probeParallel(b)
	}
}

// minParallelProbeRows is the probe-batch size below which forking
// workers costs more than it saves; smaller batches probe inline on the
// calling goroutine (against the same partitioned tables, so results are
// unchanged).
const minParallelProbeRows = 256

// probeParallel joins one probe batch against the partitioned build
// tables with dop workers over contiguous row ranges. Workers only read
// the shared batch and tables; each appends matches to its own reused
// columnar buffer, so steady-state probing allocates nothing.
func (j *HashJoin) probeParallel(b *tuple.Batch) {
	if j.parOut == nil {
		j.parOut = make([]*tuple.Batch, j.dop)
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
		out := j.parOut[part]
		out.Reset()
		if workers == 1 {
			j.probeRange(b, start, end, out)
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			j.probeRange(b, start, end, out)
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

// probeRange joins probe rows [start, end) of b into out, reading only
// the shared batch, hash array and partitioned tables.
func (j *HashJoin) probeRange(b *tuple.Batch, start, end int, out *tuple.Batch) {
	numParts := uint64(len(j.partRows))
	var probeRow, outBuf tuple.Row
	for i := start; i < end; i++ {
		h := j.probeHashes[i]
		p := int(h % numParts)
		matches := j.partTables[p][h]
		if len(matches) == 0 {
			continue
		}
		probeRow = b.AppendRowTo(probeRow[:0], i)
		for _, mi := range matches {
			build := j.partRows[p][mi]
			if !keysEqual(build, j.leftKeys, probeRow, j.rightKeys) {
				continue // hash collision
			}
			outBuf = append(outBuf[:0], build...)
			outBuf = append(outBuf, probeRow...)
			out.AppendRow(outBuf)
		}
	}
}

// Close implements Iterator.
func (j *HashJoin) Close() error {
	j.index, j.buildRows = tuple.HashIndex{}, nil
	j.partRows, j.partTables = nil, nil
	j.probeBatch = nil
	j.parOut, j.parQueue = nil, nil
	return j.right.Close()
}

// BuildJoinTree chains binary hash joins left-deep over the inputs:
// ((in[0] ⋈ in[1]) ⋈ in[2]) ⋈ ... with each join's keys named by the
// caller. Used by the workload query plans.
type JoinSpec struct {
	// LeftCol is resolved against the accumulated left schema, RightCol
	// against inputs[i+1].
	LeftCol, RightCol string
}

// BuildJoinTree constructs the left-deep tree; len(specs) must be
// len(inputs)-1.
func BuildJoinTree(inputs []Iterator, specs []JoinSpec) (Iterator, error) {
	if len(inputs) < 2 || len(specs) != len(inputs)-1 {
		return nil, fmt.Errorf("engine: join tree needs n inputs and n-1 specs, got %d/%d", len(inputs), len(specs))
	}
	cur := inputs[0]
	for i, spec := range specs {
		right := inputs[i+1]
		cur = JoinOn(cur, right, [][2]string{{spec.LeftCol, spec.RightCol}})
	}
	return cur, nil
}
