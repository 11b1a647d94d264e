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

// Fetcher retrieves one segment by object id. The vanilla path issues a
// synchronous GET to the CSD, whose proxy also charges the segment's
// virtual processing time; tests fetch from a map.
type Fetcher interface {
	// Fetch retrieves one segment, blocking until it is available.
	Fetch(id segment.ObjectID) (*segment.Segment, error)
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

// Ctx carries the execution environment through the operator tree.
type Ctx struct {
	// Fetch supplies segments to the scans.
	Fetch Fetcher
	// Trace, when non-nil, receives per-segment fetch and decode spans
	// from the scans. Spans carry wall time only: the engine cannot see
	// virtual time (the Fetcher charges it). nil (the default) records
	// nothing and costs one branch.
	Trace *trace.QueryTrace
}

// NewTestCtx returns a context over an in-memory store.
func NewTestCtx(store map[segment.ObjectID]*segment.Segment) *Ctx {
	return &Ctx{Fetch: MapFetcher(store)}
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
	// until the next NextBatch or Close call, which may hand its storage
	// to another query, so blocking consumers copy what they keep.
	NextBatch() (*tuple.Batch, bool, error)
	// Close hands the operator's batches and scratch back to the
	// working-memory pool; it may finish work first (an MJoin stream runs
	// its join to the end). Close after a failed Open is allowed.
	Close() error
	// Schema describes the output rows.
	Schema() *tuple.Schema
}

// Collect fully drains an iterator and materializes all rows. An opened
// iterator is always closed; Close's error counts if the drain succeeded.
func Collect(it Iterator) (rows []tuple.Row, err error) {
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer func() {
		if cerr := it.Close(); err == nil && cerr != nil {
			rows, err = nil, cerr
		}
	}()
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
// exists above it.
type SeqScan struct {
	ctx   *Ctx
	table *catalog.TableMeta

	// Pruner, when non-nil, is consulted before each segment fetch: a
	// segment it proves result-free (from the catalog's zone maps and
	// Bloom filters) is skipped without a fetch. Because pruning is
	// conservative, the surviving row stream is identical to the unpruned
	// one after Filter.
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

	leg *Leg
	// scratch holds the decode buffer; cd points at it while the loaded
	// segment is lazy.
	scratch LegScratch
	segIdx  int
	rows    []tuple.Row
	cd      *segment.ColumnData
	nrows   int
	rowIdx  int
	skipped int
	bytes   ScanBytes
	pstats  PipeStats
	out     *tuple.Batch

	ostats *OpStats
	// tr, when non-nil, receives per-segment fetch/decode spans. Set via
	// Ctx.Trace at construction; nil keeps the hot path span-free.
	tr *trace.QueryTrace
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
}

// add accumulates another scan's counters.
func (b *ScanBytes) add(o ScanBytes) {
	b.Fetched += o.Fetched
	b.Decoded += o.Decoded
	b.SkippedByProjection += o.SkippedByProjection
	b.Materialized += o.Materialized
}

// PipeStats is the host-side (wall-clock) decode accounting of one scan or
// MJoin run: virtual time stands still while a segment decodes — the
// proxy's per-object processing charge models the whole scan step — so
// this is where the decode cost a format or projection change attacks
// shows up.
type PipeStats struct {
	// DecodeBusy is the total real time spent decoding segments.
	DecodeBusy time.Duration
	// Decodes counts decoded segments.
	Decodes int
}

// Add accumulates another consumer's counters.
func (s *PipeStats) Add(o PipeStats) {
	s.DecodeBusy += o.DecodeBusy
	s.Decodes += o.Decodes
}

// NewSeqScan builds a sequential scan over the table.
func NewSeqScan(ctx *Ctx, table *catalog.TableMeta) *SeqScan {
	return &SeqScan{ctx: ctx, table: table, tr: ctx.Trace}
}

// LegScan is NewSeqScan running a leg the caller already built over the
// table's schema: Project and Filter are the leg's, and its batches hold
// the columns the leg hands on. It returns the scan by value, for a caller
// that allocates a plan's scans together.
func LegScan(ctx *Ctx, table *catalog.TableMeta, leg *Leg) SeqScan {
	s := SeqScan{ctx: ctx, table: table, tr: ctx.Trace, Filter: leg.filter, leg: leg}
	if len(leg.cols) < table.Schema.Len() { // a full projection stays nil
		s.Project = leg.cols
	}
	return s
}

// Schema implements Iterator: the table schema restricted to Project, or to
// the columns the scan's leg hands on.
func (s *SeqScan) Schema() *tuple.Schema {
	if s.leg == nil {
		s.leg = NewLeg(s.table.Schema, s.Project, nil, s.Filter)
	}
	return s.leg.schema
}

// Open implements Iterator.
func (s *SeqScan) Open() error {
	s.Schema() // builds the leg
	s.segIdx, s.rowIdx, s.nrows, s.rows, s.skipped = 0, 0, 0, nil, 0
	s.bytes = ScanBytes{}
	s.pstats = PipeStats{}
	return nil
}

// SegmentsSkipped reports how many segment fetches the Pruner avoided so
// far in this iteration.
func (s *SeqScan) SegmentsSkipped() int { return s.skipped }

// Bytes reports the scan-side byte accounting so far in this iteration.
func (s *SeqScan) Bytes() ScanBytes { return s.bytes }

// PipeStats reports the scan's decode-time accounting so far in this
// iteration.
func (s *SeqScan) PipeStats() PipeStats { return s.pstats }

// loadSegment advances to the next segment holding unread rows: segments
// the Pruner proves result-free are passed over without a fetch, the next
// one is fetched (blocking) and — when lazy — decoded into the scan's reused
// buffer, only the projected column blocks for v2. ok=false signals
// exhaustion.
func (s *SeqScan) loadSegment() (ok bool, err error) {
	for s.rowIdx >= s.nrows {
		for s.Pruner != nil && s.segIdx < len(s.table.Objects) && s.Pruner.CanSkip(s.segIdx) {
			s.segIdx++
			s.skipped++
		}
		if s.segIdx >= len(s.table.Objects) {
			return false, nil
		}
		id := s.table.Objects[s.segIdx]
		var start time.Time
		if s.tr.Enabled() {
			start = time.Now()
		}
		sg, err := s.ctx.Fetch.Fetch(id)
		if s.tr.Enabled() {
			s.tr.Emit(trace.CatFetch, id.String(), start)
		}
		if err != nil {
			return false, err
		}
		s.segIdx++
		var cd *segment.ColumnData
		nrows := len(sg.Rows)
		if sg.Lazy() {
			t0 := time.Now()
			cd, err = sg.DecodeColumns(s.table.Schema, s.Project, &s.scratch.cd)
			if s.tr.Enabled() {
				s.tr.Emit(trace.CatDecode, sg.ID.String(), t0)
			}
			if err != nil {
				return false, err
			}
			s.pstats.DecodeBusy += time.Since(t0)
			s.pstats.Decodes++
			s.bytes.add(segmentBytes(sg, cd))
			nrows = cd.NumRows
		}
		s.cd, s.rows, s.nrows, s.rowIdx = cd, sg.Rows, nrows, 0
	}
	return true, nil
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

// Close implements Iterator, releasing the output batch, decode buffer
// (unless it holds views) and selection vector.
func (s *SeqScan) Close() error {
	s.scratch.Release()
	s.rows, s.cd = nil, nil
	return closeOutput(&s.out, nil)
}
