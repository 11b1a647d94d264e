package engine

import (
	"repro/internal/tuple"
)

// DefaultBatchSize is the number of rows moved per NextBatch call. Large
// enough to amortize per-call dispatch over data work, small enough to
// keep a batch of every operator in cache.
const DefaultBatchSize = 1024

// BatchIterator is the batched Volcano interface: operators move
// DefaultBatchSize rows per call instead of one, so per-call dispatch,
// hashing setup and schema lookups amortize over the batch. Every
// built-in operator implements both Iterator and BatchIterator; the
// returned batch is valid only until the next NextBatch call, so blocking
// consumers copy what they keep.
//
// Pick one protocol per drain: streaming operators serve Next through a
// row cursor that buffers a whole output batch, so switching to NextBatch
// mid-stream would skip the cursor's buffered rows. (Leaf and blocking
// operators — SeqScan, Values, Sort, HashAgg — share one cursor between
// the protocols and tolerate mixing, but callers should not rely on it.)
type BatchIterator interface {
	// Open prepares the operator for iteration.
	Open() error
	// NextBatch returns the next batch of rows; ok=false signals
	// exhaustion. A returned batch is never empty.
	NextBatch() (*tuple.Batch, bool, error)
	// Close releases resources. Close after a failed Open is allowed.
	Close() error
	// Schema describes the output rows.
	Schema() *tuple.Schema
}

// AsBatch returns it as a BatchIterator: operators that are batch-native
// pass through, anything else is wrapped in a BatchAdapter.
func AsBatch(it Iterator) BatchIterator {
	if b, ok := it.(BatchIterator); ok {
		return b
	}
	return &BatchAdapter{It: it}
}

// BatchAdapter lifts a row-only Iterator into the batch protocol by
// accumulating rows into a reused buffer.
type BatchAdapter struct {
	// It is the wrapped row-at-a-time iterator.
	It  Iterator
	buf *tuple.Batch
}

// Open implements BatchIterator.
func (a *BatchAdapter) Open() error { return a.It.Open() }

// NextBatch implements BatchIterator.
func (a *BatchAdapter) NextBatch() (*tuple.Batch, bool, error) {
	if a.buf == nil {
		a.buf = tuple.NewBatch(a.It.Schema(), DefaultBatchSize)
	}
	a.buf.Reset()
	for !a.buf.Full() {
		row, ok, err := a.It.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		a.buf.AppendRow(row)
	}
	if a.buf.Len() == 0 {
		return nil, false, nil
	}
	return a.buf, true, nil
}

// Close implements BatchIterator.
func (a *BatchAdapter) Close() error { return a.It.Close() }

// Schema implements BatchIterator.
func (a *BatchAdapter) Schema() *tuple.Schema { return a.It.Schema() }

// RowAdapter exposes a BatchIterator through the classic row Iterator
// interface — the thin bridge that keeps the row-at-a-time API alive on
// top of the batched core. Rows are materialized per batch, so they stay
// valid after the underlying buffers are reused.
type RowAdapter struct {
	// B is the wrapped batch-native iterator.
	B   BatchIterator
	cur rowCursor
}

// Open implements Iterator.
func (r *RowAdapter) Open() error {
	r.cur.reset()
	return r.B.Open()
}

// Next implements Iterator.
func (r *RowAdapter) Next() (tuple.Row, bool, error) { return r.cur.next(r.B) }

// Close implements Iterator.
func (r *RowAdapter) Close() error {
	r.cur.reset()
	return r.B.Close()
}

// Schema implements Iterator.
func (r *RowAdapter) Schema() *tuple.Schema { return r.B.Schema() }

// rowCursor serves Next() for batch-native streaming operators: it drains
// the operator's own NextBatch and hands out materialized rows.
type rowCursor struct {
	rows []tuple.Row
	idx  int
}

func (c *rowCursor) reset() { c.rows, c.idx = nil, 0 }

func (c *rowCursor) next(bi BatchIterator) (tuple.Row, bool, error) {
	for c.idx >= len(c.rows) {
		b, ok, err := bi.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		c.rows, c.idx = b.Rows(), 0
	}
	row := c.rows[c.idx]
	c.idx++
	return row, true, nil
}

// sizedOutput returns an operator's reused output batch, emptied, with room
// for an input of the given row count up to DefaultBatchSize. The batch is
// allocated on first use at the size of that first input and replaced only
// when a larger input follows, so a plan moving 25 rows never pays for 1024;
// the batch handed out by the previous call stays valid until this one.
func sizedOutput(out **tuple.Batch, schema *tuple.Schema, rows int) *tuple.Batch {
	if want := min(rows, DefaultBatchSize); *out == nil || (*out).Cap() < want {
		*out = tuple.NewBatch(schema, want)
	}
	(*out).Reset()
	return *out
}

// serveRowSlice serves rows[*idx:] through a reused batch no larger than
// the rows need, advancing *idx — the shared NextBatch body of every
// operator that holds its output as a materialized row slice.
func serveRowSlice(out **tuple.Batch, schema *tuple.Schema, rows []tuple.Row, idx *int) (*tuple.Batch, bool, error) {
	if *idx >= len(rows) {
		return nil, false, nil
	}
	b := sizedOutput(out, schema, len(rows)-*idx)
	n := len(rows) - *idx
	if n > b.Cap() {
		n = b.Cap()
	}
	for i := 0; i < n; i++ {
		b.AppendRow(rows[*idx+i])
	}
	*idx += n
	return b, true, nil
}

// CollectBatches fully drains a BatchIterator and materializes all rows.
func CollectBatches(bi BatchIterator) ([]tuple.Row, error) {
	if err := bi.Open(); err != nil {
		return nil, err
	}
	defer bi.Close()
	var out []tuple.Row
	for {
		b, ok, err := bi.NextBatch()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = b.AppendRows(out)
	}
}

// drainBatches opens bi, feeds every row to fn via a reused scratch row,
// and closes it. The scratch row is only valid within one fn call.
func drainBatches(bi BatchIterator, fn func(row tuple.Row) error) error {
	if err := bi.Open(); err != nil {
		bi.Close()
		return err
	}
	defer bi.Close()
	var scratch tuple.Row
	for {
		b, ok, err := bi.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for i := 0; i < b.Len(); i++ {
			scratch = b.AppendRowTo(scratch[:0], i)
			if err := fn(scratch); err != nil {
				return err
			}
		}
	}
}
