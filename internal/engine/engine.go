// Package engine implements a pull-based, Volcano-style query executor —
// the stand-in for vanilla PostgreSQL in the paper's experiments. Its
// defining property for this study is the execution protocol: operators
// pull tuples in optimizer-chosen plan order, which makes the storage
// layer fetch one segment at a time in a fixed sequence. On a CSD this
// pull-based order conflicts with the device's preferred group-by-group
// service order and triggers the S·C·D group-switch blow-up of §3.2.
package engine

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tuple"
)

// Clock abstracts virtual time so operators can charge processing costs.
// vtime.Proc satisfies it; tests use a fake.
type Clock interface {
	// Sleep advances the clock by d (blocking on a simulated clock).
	Sleep(d time.Duration)
}

// NopClock ignores all charges; used by pure correctness tests.
type NopClock struct{}

// Sleep implements Clock.
func (NopClock) Sleep(time.Duration) {}

// Fetcher retrieves one segment by object id. The vanilla path issues a
// synchronous GET to the CSD; tests fetch from a map.
type Fetcher interface {
	// Fetch retrieves one segment, blocking until it is available.
	Fetch(id segment.ObjectID) (*segment.Segment, error)
}

// TryFetcher is an optional Fetcher extension for pipelined scans:
// TryFetch returns a segment only when it is immediately available — in
// memory, cache-resident, or already prefetched — without ever blocking
// on storage. Pipelined scans use it to read ahead: a segment that would
// block is simply not read ahead (ok=false), so read-ahead never changes
// when the consumer waits, only what it finds decoded when it stops
// waiting.
type TryFetcher interface {
	// TryFetch returns (seg, true, nil) when the object is immediately
	// available, (nil, false, nil) when fetching it would block, and a
	// non-nil error only on a real fetch failure.
	TryFetch(id segment.ObjectID) (*segment.Segment, bool, error)
}

// MapFetcher serves segments from memory with no cost.
type MapFetcher map[segment.ObjectID]*segment.Segment

// Fetch implements Fetcher.
func (m MapFetcher) Fetch(id segment.ObjectID) (*segment.Segment, error) {
	sg, ok := m[id]
	if !ok {
		return nil, fmt.Errorf("engine: object %v not found", id)
	}
	return sg, nil
}

// TryFetch implements TryFetcher: an in-memory store never blocks, so
// every object is read-ahead eligible.
func (m MapFetcher) TryFetch(id segment.ObjectID) (*segment.Segment, bool, error) {
	sg, err := m.Fetch(id)
	if err != nil {
		return nil, false, err
	}
	return sg, true, nil
}

// Costs charges virtual processing time. ProcessPerObject is the per-1-GB-
// segment query-processing cost; the paper's Table 3 implies ≈7.14 s
// (407 s of query execution over 57 objects).
type Costs struct {
	// ProcessPerObject is charged once per fetched segment.
	ProcessPerObject time.Duration
}

// DefaultCosts returns the Table 3 calibration.
func DefaultCosts() Costs {
	return Costs{ProcessPerObject: 7140 * time.Millisecond}
}

// Ctx carries the execution environment through the operator tree.
type Ctx struct {
	// Clock receives virtual processing-time charges.
	Clock Clock
	// Fetch supplies segments to the scans.
	Fetch Fetcher
	// Costs calibrates the charges.
	Costs Costs
	// Pipe, when non-nil with a Pool, turns the scans asynchronous: each
	// scan reads ahead up to Pipe.Depth immediately-available segments
	// (Fetch must implement TryFetcher for read-ahead to engage) and
	// decodes them on the pool's workers, so decode overlaps compute in
	// real time. Row streams are byte-identical with and without it; the
	// virtual-time interleaving of fetch charges may shift (reads happen
	// earlier) while per-segment totals are unchanged.
	Pipe *Pipeline
	// Trace, when non-nil, receives per-segment fetch and decode spans
	// from the scans. Spans carry wall time only: the engine may be
	// drained from decode workers that do not own a virtual-time proc.
	// nil (the default) records nothing and costs one branch.
	Trace *trace.QueryTrace
}

// NewTestCtx returns a context over an in-memory store with no costs.
func NewTestCtx(store map[segment.ObjectID]*segment.Segment) *Ctx {
	return &Ctx{Clock: NopClock{}, Fetch: MapFetcher(store)}
}

// Iterator is the operator interface, a batched Volcano protocol:
// operators move up to DefaultBatchSize rows per call instead of one, so
// per-call dispatch, hashing setup and schema lookups amortize over the
// batch. Rows exist only at the result boundary (Collect).
type Iterator interface {
	// Open prepares the operator for iteration.
	Open() error
	// NextBatch returns the next batch of rows; ok=false signals
	// exhaustion. A returned batch is never empty, and is valid only
	// until the next NextBatch call, so blocking consumers copy what
	// they keep.
	NextBatch() (*tuple.Batch, bool, error)
	// Close releases resources. Close after a failed Open is allowed.
	Close() error
	// Schema describes the output rows.
	Schema() *tuple.Schema
}

// Collect fully drains an iterator and materializes all rows.
func Collect(it Iterator) ([]tuple.Row, error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	var out []tuple.Row
	for {
		b, ok, err := it.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = b.AppendRows(out)
	}
}

// SeqScan reads a relation segment by segment, in catalog order — the
// strict plan-order pull that defeats CSD scheduling. It is the pull
// engine's relation leg: every loaded segment goes through the Leg kernel
// (decode → filter → select) a batch-sized range at a time, so the scan's
// output is Filter's survivors of Project's columns and nothing wider ever
// exists above it. Per-segment cost charges do not depend on either.
type SeqScan struct {
	ctx   *Ctx
	table *catalog.TableMeta

	// Pruner, when non-nil, is consulted before each segment fetch: a
	// segment it proves result-free (from the catalog's zone maps and
	// Bloom filters) is skipped without issuing a GET or charging any
	// processing cost. Because pruning is conservative, the surviving
	// row stream is identical to the unpruned one after Filter.
	Pruner stats.Pruner

	// Project is the scan's physical projection: the table columns, in
	// ascending order, that its schema and batches consist of (empty = bare
	// row counts, nil = every column). Lazily decoded v2 segments decode
	// only these blocks, and an operator above the scan binds against
	// Schema(), so it cannot name a column outside the projection.
	Project []int

	// Filter is the scan's local predicate, bound against the table schema
	// (not the projected one); it may only read columns of Project. Rows
	// failing it never leave the decode buffer. nil keeps every row.
	// Project and Filter are read once, when the scan is first asked for
	// its schema or opened.
	Filter expr.Expr

	leg     *Leg
	scratch legScratch
	segIdx  int
	rows    []tuple.Row
	cd      *segment.ColumnData
	nrows   int
	rowIdx  int
	skipped int
	bytes   ScanBytes
	out     *tuple.Batch

	// Pipelined-mode state (ctx.Pipe set): the FIFO of read-ahead
	// segments in flight on the decode pool, the recycled decode buffers
	// (depth+1 in steady state), and the real-time stall accounting.
	ahead  []*scanAhead
	freeCD []*segment.ColumnData
	pstats PipeStats

	ostats *OpStats
	// tr, when non-nil, receives per-segment fetch/decode spans. Set via
	// Ctx.Trace at construction; nil keeps the hot path span-free.
	tr *trace.QueryTrace
}

// scanAhead is one read-ahead segment: fetched, with its decode (lazy
// segments only) in flight on the pool.
type scanAhead struct {
	seg *segment.Segment
	t   *DecodeTicket // nil for non-lazy segments (nothing to decode)
	cd  *segment.ColumnData
	err error
}

// ScanBytes is the scan-side byte accounting of one SeqScan drain. All
// counters are zero over materialized (never-encoded) stores, where the
// scan has no decode work to do.
type ScanBytes struct {
	// Fetched is the total encoded size of the segments fetched.
	Fetched int64
	// Decoded counts encoded block bytes actually decoded.
	Decoded int64
	// SkippedByProjection counts encoded block bytes left undecoded
	// because the projection did not need their columns.
	SkippedByProjection int64
	// Materialized counts the logical bytes of decoded values.
	Materialized int64
	// DecodeTime is the wall-clock time spent decoding segments — the
	// scan-side decode cost the v2 format attacks.
	DecodeTime time.Duration
}

// add accumulates another scan's counters.
func (b *ScanBytes) add(o ScanBytes) {
	b.Fetched += o.Fetched
	b.Decoded += o.Decoded
	b.SkippedByProjection += o.SkippedByProjection
	b.Materialized += o.Materialized
	b.DecodeTime += o.DecodeTime
}

// NewSeqScan builds a sequential scan over the table.
func NewSeqScan(ctx *Ctx, table *catalog.TableMeta) *SeqScan {
	return &SeqScan{ctx: ctx, table: table, tr: ctx.Trace}
}

// Schema implements Iterator: the table schema restricted to Project.
func (s *SeqScan) Schema() *tuple.Schema {
	if s.leg == nil {
		s.leg = NewLeg(s.table.Schema, s.Project, s.Filter)
	}
	return s.leg.schema
}

// Open implements Iterator.
func (s *SeqScan) Open() error {
	s.Schema() // builds the leg
	s.drainAhead()
	s.segIdx, s.rowIdx, s.nrows, s.rows, s.skipped = 0, 0, 0, nil, 0
	s.bytes = ScanBytes{}
	s.pstats = PipeStats{}
	return nil
}

// drainAhead waits out any in-flight decode jobs and recycles their
// buffers, so a re-Open or Close never leaves a worker writing into
// state the scan is about to reuse.
func (s *SeqScan) drainAhead() {
	for _, job := range s.ahead {
		if job.t != nil {
			job.t.Wait()
			if job.cd != nil {
				s.freeCD = append(s.freeCD, job.cd)
			}
		}
	}
	s.ahead = nil
}

// SegmentsSkipped reports how many segment fetches the Pruner avoided so
// far in this iteration.
func (s *SeqScan) SegmentsSkipped() int { return s.skipped }

// Bytes reports the scan-side byte and decode-time accounting so far in
// this iteration.
func (s *SeqScan) Bytes() ScanBytes { return s.bytes }

// PipeStats reports the scan's real-time pipeline accounting: fetch and
// decode stalls, and decode work overlapped with compute. With ctx.Pipe
// unset the scan still fills DecodeBusy/DecodeStall (decode runs inline,
// so the two are equal) — the pipeline-off baseline of the wall-clock
// comparison.
func (s *SeqScan) PipeStats() PipeStats { return s.pstats }

// nextUnpruned passes over the segments the Pruner proves result-free and
// reports whether any segment is left.
func (s *SeqScan) nextUnpruned() bool {
	for s.Pruner != nil && s.segIdx < len(s.table.Objects) && s.Pruner.CanSkip(s.segIdx) {
		s.segIdx++
		s.skipped++
	}
	return s.segIdx < len(s.table.Objects)
}

// fetchNext fetches segment segIdx, blocking, and advances past it.
func (s *SeqScan) fetchNext() (*segment.Segment, error) {
	id := s.table.Objects[s.segIdx]
	start := time.Now()
	sg, err := s.ctx.Fetch.Fetch(id)
	s.pstats.FetchStall += time.Since(start)
	if s.tr.Enabled() {
		s.tr.Emit(trace.CatFetch, id.String(), start)
	}
	if err == nil {
		s.segIdx++
	}
	return sg, err
}

// consume makes a fetched segment — decoded into cd when it is lazy — the
// one being served, and charges the per-segment processing cost.
func (s *SeqScan) consume(sg *segment.Segment, cd *segment.ColumnData) {
	s.cd, s.rows, s.nrows, s.rowIdx = cd, sg.Rows, len(sg.Rows), 0
	if cd != nil {
		s.bytes.add(segmentBytes(sg, cd))
		s.nrows = cd.NumRows
	}
	s.ctx.Clock.Sleep(s.ctx.Costs.ProcessPerObject)
}

// loadSegment advances to the next segment holding unread rows, charging
// the per-segment processing cost per fetch; prunable segments are
// passed over without a fetch. Lazy segments are decoded here — only the
// projected column blocks for v2 — into reused buffers. ok=false signals
// exhaustion.
func (s *SeqScan) loadSegment() (ok bool, err error) {
	if s.ctx.Pipe != nil && s.ctx.Pipe.Pool != nil {
		return s.loadSegmentPipelined()
	}
	for s.rowIdx >= s.nrows {
		if !s.nextUnpruned() {
			return false, nil
		}
		sg, err := s.fetchNext()
		if err != nil {
			return false, err
		}
		var cd *segment.ColumnData
		if sg.Lazy() {
			start := time.Now()
			cd, err = sg.DecodeColumns(s.table.Schema, s.Project, s.cd)
			if s.tr.Enabled() {
				s.tr.Emit(trace.CatDecode, sg.ID.String(), start)
			}
			if err != nil {
				return false, err
			}
			d := time.Since(start)
			// Inline decode sits entirely on the critical path: busy and
			// stall coincide — the pipeline-off baseline.
			s.bytes.DecodeTime += d
			s.pstats.DecodeBusy += d
			s.pstats.DecodeStall += d
			s.pstats.Decodes++
		}
		s.consume(sg, cd)
	}
	return true, nil
}

// loadSegmentPipelined is loadSegment with the asynchronous pipeline on:
// segments are read ahead (TryFetcher permitting) and decoded on the
// pool, and consumption pops the oldest read-ahead slot — strictly in
// fetch order, so the row stream is byte-identical to the serial path.
// The per-segment cost charge still lands at consumption; fetch-side
// charges (FUSE, GET accounting) happen at read-ahead time instead of
// consumption time, shifting their virtual interleaving but never their
// totals. A scan abandoned early (LIMIT) may have read ahead past its
// last consumed segment — those segments count as fetched, exactly like
// a real speculative read.
func (s *SeqScan) loadSegmentPipelined() (bool, error) {
	for s.rowIdx >= s.nrows {
		if err := s.fillAhead(); err != nil {
			return false, err
		}
		if len(s.ahead) == 0 {
			// Nothing immediately available: demand-fetch the next
			// unpruned segment, blocking, then decode it on the pool.
			if !s.nextUnpruned() {
				return false, nil
			}
			sg, err := s.fetchNext()
			if err != nil {
				return false, err
			}
			s.submitAhead(sg)
			// The demand fetch may have made successors available (e.g.
			// the prefetcher delivered meanwhile): top the window up so
			// their decodes start now.
			if err := s.fillAhead(); err != nil {
				return false, err
			}
		}
		job := s.ahead[0]
		copy(s.ahead, s.ahead[1:])
		s.ahead = s.ahead[:len(s.ahead)-1]
		if job.t != nil {
			if job.t.Ready() {
				s.pstats.DecodesOverlapped++
			}
			s.pstats.DecodeStall += job.t.Wait()
			s.pstats.DecodeBusy += job.t.Busy
			s.pstats.Decodes++
			s.bytes.DecodeTime += job.t.Busy
		}
		if job.err != nil {
			return false, job.err
		}
		if s.cd != nil {
			// The previous segment is fully consumed; its buffer feeds the
			// next decode submission.
			s.freeCD = append(s.freeCD, s.cd)
		}
		s.consume(job.seg, job.cd)
	}
	return true, nil
}

// fillAhead tops the read-ahead window up to the configured depth with
// immediately-available segments. It never blocks: the window simply
// stays short when the next segment would.
func (s *SeqScan) fillAhead() error {
	tf, ok := s.ctx.Fetch.(TryFetcher)
	if !ok {
		return nil
	}
	depth := s.ctx.Pipe.depth()
	for len(s.ahead) < depth && s.nextUnpruned() {
		sg, avail, err := tf.TryFetch(s.table.Objects[s.segIdx])
		if err != nil {
			return err
		}
		if !avail {
			return nil
		}
		s.segIdx++
		s.submitAhead(sg)
	}
	return nil
}

// submitAhead appends a fetched segment to the read-ahead FIFO, starting
// its decode on the pool. Each in-flight decode owns its buffer (from
// the recycle list or fresh), so concurrent jobs never share state.
func (s *SeqScan) submitAhead(sg *segment.Segment) {
	job := &scanAhead{seg: sg}
	if sg.Lazy() {
		var reuse *segment.ColumnData
		if n := len(s.freeCD); n > 0 {
			reuse, s.freeCD = s.freeCD[n-1], s.freeCD[:n-1]
		}
		var name string
		if s.tr.Enabled() {
			name = sg.ID.String()
		}
		job.t = s.ctx.Pipe.Pool.Submit(func() {
			t0 := time.Now()
			job.cd, job.err = sg.DecodeColumns(s.table.Schema, s.Project, reuse)
			// Recording from the pool worker is safe: QueryTrace is
			// mutex-guarded, and the span carries wall time only.
			if s.tr.Enabled() {
				s.tr.Emit(trace.CatDecode, name, t0)
			}
		})
	}
	s.ahead = append(s.ahead, job)
}

// NextBatch implements Iterator. Batches never span a segment boundary,
// so early termination (e.g. under a LIMIT) fetches only the segments it
// consumed.
func (s *SeqScan) NextBatch() (*tuple.Batch, bool, error) {
	if s.ostats != nil {
		return timedBatch(s.ostats, s.nextBatch)
	}
	return s.nextBatch()
}

func (s *SeqScan) nextBatch() (*tuple.Batch, bool, error) {
	for {
		ok, err := s.loadSegment()
		if !ok {
			return nil, false, err
		}
		lo := s.rowIdx
		s.rowIdx = min(s.nrows, lo+DefaultBatchSize)
		out := sizedOutput(&s.out, s.leg.schema, s.rowIdx-lo)
		if s.leg.filter != nil {
			if err := s.leg.selectRows(s.cd, s.rows, lo, s.rowIdx, &s.scratch); err != nil {
				return nil, false, err
			}
		}
		s.leg.appendRows(out, s.cd, s.rows, lo, s.rowIdx, s.scratch.sel)
		if out.Len() > 0 {
			return out, true, nil
		}
	}
}

// Close implements Iterator.
func (s *SeqScan) Close() error {
	s.drainAhead()
	s.rows, s.cd = nil, nil
	return nil
}
