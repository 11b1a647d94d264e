package tuple

// Batch is a column-oriented buffer of rows with a fixed nominal capacity.
// It is the unit of data flow in the batched execution core: operators fill
// a batch column by column (or row by row), hand it downstream, and reuse
// the buffers on the next cycle. A batch handed to a consumer is valid only
// until the producer's next NextBatch call, so blocking consumers must copy
// what they keep (Rows and Row return copies).
type Batch struct {
	schema *Schema
	cols   [][]Value
	n      int
	// capacity is the row count the batch was made for. It is kept apart
	// from the column buffers so that a batch of a zero-column schema — a
	// COUNT(*) leg — still has room for rows.
	capacity int
}

// NewBatch returns an empty batch over schema with room for capacity rows
// per column; the columns share one allocation.
func NewBatch(schema *Schema, capacity int) *Batch {
	if capacity <= 0 {
		capacity = 1
	}
	cols := make([][]Value, schema.Len())
	arena := make([]Value, len(cols)*capacity)
	for i := range cols {
		cols[i] = arena[i*capacity : i*capacity : (i+1)*capacity]
	}
	return &Batch{schema: schema, cols: cols, capacity: capacity}
}

// FromRows builds a batch holding a copy of rows.
func FromRows(schema *Schema, rows []Row) *Batch {
	b := NewBatch(schema, len(rows))
	for _, r := range rows {
		b.AppendRow(r)
	}
	return b
}

// BatchOf wraps caller-provided columns, one per schema column and each at
// least n values long, as a full batch of n rows without copying; the
// caller gives the columns up.
func BatchOf(schema *Schema, cols [][]Value, n int) *Batch {
	for c := range cols {
		cols[c] = cols[c][:n:n]
	}
	return &Batch{schema: schema, cols: cols, n: n, capacity: n}
}

// Schema describes the batch's columns.
func (b *Batch) Schema() *Schema { return b.schema }

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return b.n }

// Cap returns the row capacity the batch was made with. Appending past it
// grows the column buffers; the batch then stays Full.
func (b *Batch) Cap() int { return b.capacity }

// Full reports whether the batch has reached its capacity.
func (b *Batch) Full() bool { return b.n >= b.capacity }

// Reset empties the batch, keeping the column buffers for reuse.
func (b *Batch) Reset() {
	for i := range b.cols {
		b.cols[i] = b.cols[i][:0]
	}
	b.n = 0
}

// Col returns column i's values; the slice aliases the batch buffer.
func (b *Batch) Col(i int) []Value { return b.cols[i][:b.n] }

// AppendRow copies one row into the batch, growing the buffers if needed.
func (b *Batch) AppendRow(r Row) {
	for i := range b.cols {
		b.cols[i] = append(b.cols[i], r[i])
	}
	b.n++
}

// AppendBatchRow copies row i of src (which must share the schema arity)
// into the batch.
func (b *Batch) AppendBatchRow(src *Batch, i int) {
	for c := range b.cols {
		b.cols[c] = append(b.cols[c], src.cols[c][i])
	}
	b.n++
}

// AppendBatch copies every row of src (which must share the schema arity)
// into the batch, column by column — one bulk copy per column instead of a
// per-row loop. It is how morsels are cloned out of a producer's reused
// buffer before being handed to a parallel worker.
func (b *Batch) AppendBatch(src *Batch) {
	for c := range b.cols {
		b.cols[c] = append(b.cols[c], src.cols[c][:src.n]...)
	}
	b.n += src.n
}

// AppendColumns appends rows [start, end) of a decoded segment to the
// batch, one bulk copy per column: batch column c is read from cols[pick[c]],
// so a batch narrower than the segment's table copies only its own columns.
func (b *Batch) AppendColumns(cols [][]Value, pick []int, start, end int) {
	for c, src := range pick {
		b.cols[c] = append(b.cols[c], cols[src][start:end]...)
	}
	b.n += end - start
}

// AppendSelected is AppendColumns for the rows a selection vector names,
// gathered column by column.
func (b *Batch) AppendSelected(cols [][]Value, pick []int, sel []int32) {
	for c, src := range pick {
		dst, col := b.cols[c], cols[src]
		for _, i := range sel {
			dst = append(dst, col[i])
		}
		b.cols[c] = dst
	}
	b.n += len(sel)
}

// AppendProjected appends one row of a wider schema: batch column c takes
// r[pick[c]].
func (b *Batch) AppendProjected(r Row, pick []int) {
	for c, src := range pick {
		b.cols[c] = append(b.cols[c], r[src])
	}
	b.n++
}

// AppendJoined appends hi-lo rows to a batch whose schema is the
// concatenation of the srcs' schemas: output row k is row ids[0][lo+k] of
// srcs[0] followed by row ids[1][lo+k] of srcs[1], and so on — the late
// materialization step of a join that carried its partial tuples as one
// row id per input. Values are gathered column by column.
func (b *Batch) AppendJoined(srcs []*Batch, ids [][]int32, lo, hi int) {
	c := 0
	for r, src := range srcs {
		sel := ids[r][lo:hi]
		for _, col := range src.cols {
			dst := b.cols[c]
			for _, id := range sel {
				dst = append(dst, col[id])
			}
			b.cols[c] = dst
			c++
		}
	}
	b.n += hi - lo
}

// Row materializes row i as a freshly allocated Row.
func (b *Batch) Row(i int) Row {
	out := make(Row, len(b.cols))
	for c := range b.cols {
		out[c] = b.cols[c][i]
	}
	return out
}

// AppendRowTo appends row i's values to dst and returns it; pass a reused
// scratch slice (dst[:0]) to read rows without allocating.
func (b *Batch) AppendRowTo(dst Row, i int) Row {
	for c := range b.cols {
		dst = append(dst, b.cols[c][i])
	}
	return dst
}

// Rows materializes every row of the batch. The rows share one backing
// arena but do not alias the batch buffers, so they stay valid after the
// batch is reset or refilled.
func (b *Batch) Rows() []Row {
	if b.n == 0 {
		return nil
	}
	return b.AppendRows(make([]Row, 0, b.n))
}

// AppendRows appends the materialized rows of the batch to dst, as Rows
// does: one arena per call, however many rows.
func (b *Batch) AppendRows(dst []Row) []Row {
	w := len(b.cols)
	arena := make([]Value, b.n*w)
	for i := 0; i < b.n; i++ {
		row := arena[i*w : (i+1)*w : (i+1)*w]
		for c := range b.cols {
			row[c] = b.cols[c][i]
		}
		dst = append(dst, row)
	}
	return dst
}

// FNV-1a parameters shared by the scalar and vectorized hash paths.
const (
	hashBasis uint64 = 14695981039346656037
	hashPrime uint64 = 1099511628211
)

// HashColumns writes, for each row, the combined hash of the key columns
// into dst (reusing its backing array when large enough) and returns it.
// The combination matches HashRowKey, so columnar build sides and row
// probe sides hash identically. The per-kind dispatch is hoisted out of
// the row loop: each key column is hashed in one tight pass.
func (b *Batch) HashColumns(keys []int, dst []uint64) []uint64 {
	if cap(dst) < b.n {
		dst = make([]uint64, b.n)
	} else {
		dst = dst[:b.n]
	}
	for i := range dst {
		dst[i] = hashBasis
	}
	for _, k := range keys {
		col := b.cols[k][:b.n]
		switch b.schema.Cols[k].Kind {
		case KindString:
			for i := range col {
				dst[i] = dst[i]*hashPrime ^ hashString(col[i].S)
			}
		case KindFloat64:
			for i := range col {
				dst[i] = dst[i]*hashPrime ^ hashFloat(col[i].F)
			}
		default:
			for i := range col {
				dst[i] = dst[i]*hashPrime ^ hashInt(col[i].I)
			}
		}
	}
	return dst
}

// HashRowKey combines the hashes of a row's key columns — the scalar
// counterpart of Batch.HashColumns, used by row-at-a-time probes.
func HashRowKey(r Row, keys []int) uint64 {
	h := hashBasis
	for _, k := range keys {
		h = h*hashPrime ^ r[k].Hash()
	}
	return h
}

// HashKey returns the hash HashColumns gives a row whose single key
// column holds v — the probe side of a HashIndex built over that column.
func HashKey(v Value) uint64 {
	h := hashBasis // a variable, so the product wraps as HashColumns' does
	return h*hashPrime ^ v.Hash()
}
