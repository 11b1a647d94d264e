package tuple

import (
	"slices"
	"unsafe"
)

// Vector is one column's cells in typed form. The column's Kind picks the
// slice that holds them — I for int64, date (days) and bool (0/1), F for
// float64, S for string — and the other two stay nil, so a cell costs its
// payload (8 bytes, 16 for a string header) and nothing for the kinds it is
// not. A Value is built from a vector only where a scalar is wanted.
type Vector struct {
	I []int64
	F []float64
	S []string
}

// Value returns cell i of a column of kind k as a scalar.
func (v Vector) Value(k Kind, i int) Value {
	switch k {
	case KindFloat64:
		return Value{K: k, F: v.F[i]}
	case KindString:
		return Value{K: k, S: v.S[i]}
	default:
		return Value{K: k, I: v.I[i]}
	}
}

// Size returns the logical size of the first n cells of a column of kind k:
// 8 bytes per numeric, the payload length per string.
func (v Vector) Size(k Kind, n int) int64 {
	if k != KindString {
		return 8 * int64(n)
	}
	var size int64
	for _, s := range v.S[:n] {
		size += int64(len(s))
	}
	return size
}

func (v *Vector) appendValue(k Kind, x Value) {
	switch k {
	case KindFloat64:
		v.F = append(v.F, x.F)
	case KindString:
		v.S = append(v.S, x.S)
	default:
		v.I = append(v.I, x.I)
	}
}

// appendRange appends cells [lo, hi) of src, a column of the same kind.
func (v *Vector) appendRange(k Kind, src Vector, lo, hi int) {
	switch k {
	case KindFloat64:
		v.F = append(v.F, src.F[lo:hi]...)
	case KindString:
		v.S = append(v.S, src.S[lo:hi]...)
	default:
		v.I = append(v.I, src.I[lo:hi]...)
	}
}

// appendGather appends the cells of src, a column of the same kind, that
// ids names.
func (v *Vector) appendGather(k Kind, src Vector, ids []int32) {
	switch k {
	case KindFloat64:
		v.F = gather(v.F, src.F, ids)
	case KindString:
		v.S = gather(v.S, src.S, ids)
	default:
		v.I = gather(v.I, src.I, ids)
	}
}

func gather[T any](dst, src []T, ids []int32) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(ids))[:n+len(ids)]
	for k, id := range ids {
		dst[n+k] = src[id]
	}
	return dst
}

// carve cuts the next n-cell column buffer, empty, off an arena.
func carve[T any](arena *[]T, n int) []T {
	col := (*arena)[:0:n]
	*arena = (*arena)[n:]
	return col
}

// Batch is a column-oriented buffer of rows with a fixed nominal capacity:
// one typed Vector per schema column. It is the unit of data flow in the
// batched execution core: operators fill a batch column by column (or row by
// row), hand it downstream, and reuse the buffers on the next cycle. A batch
// handed to a consumer is valid only until the producer's next NextBatch or
// Close call, which may Release it to the working-memory pool, so blocking
// consumers must copy what they keep (Rows and Row return copies).
type Batch struct {
	schema *Schema
	// cols[c] holds n cells in the slice schema.Cols[c].Kind picks.
	cols []Vector
	n    int
	// capacity is the row count the batch was made for. It is kept apart
	// from the column buffers so that a batch of a zero-column schema — a
	// COUNT(*) leg — still has room for rows.
	capacity int
	// nums and strs are the arenas NewBatch carved the columns from, which
	// Release hands back; a batch of BatchOf owns each column whole instead.
	nums []int64
	strs []string
	// view marks a batch over columns it does not own (ViewOf).
	view bool
}

// NewBatch returns an empty batch over schema with room for capacity rows
// per column. The batch's shell comes from the pool, and the columns of one
// storage class share one arena from it — the 8-byte numerics (int64 and
// float64 cells alike) one, the strings another — and a class the schema
// does not use costs none.
func NewBatch(schema *Schema, capacity int) *Batch {
	if capacity <= 0 {
		capacity = 1
	}
	ns := 0
	for _, c := range schema.Cols {
		if c.Kind == KindString {
			ns++
		}
	}
	b := shell(schema.Len())
	b.schema, b.capacity = schema, capacity
	b.nums, b.strs = Take[int64]((schema.Len()-ns)*capacity), Take[string](ns*capacity)
	nums, strs, cols := b.nums, b.strs, b.cols
	for i, c := range schema.Cols {
		switch c.Kind {
		case KindFloat64:
			// A float column is its slot of the numeric arena seen as float64s.
			slot := carve(&nums, capacity)
			cols[i].F = unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(slot))), capacity)[:0]
		case KindString:
			cols[i].S = carve(&strs, capacity)
		default:
			cols[i].I = carve(&nums, capacity)
		}
	}
	return b
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
// least n cells long, as a full batch of n rows without copying a cell: the
// batch's shell from the pool holds the columns' headers, and cols stays
// the caller's. The caller gives the columns up, each whole (Release
// returns them).
func BatchOf(schema *Schema, cols []Vector, n int) *Batch {
	b := shell(len(cols))
	b.schema, b.n, b.capacity = schema, n, n
	for c, v := range cols {
		switch schema.Cols[c].Kind {
		case KindFloat64:
			v.F = v.F[:n]
		case KindString:
			v.S = v.S[:n]
		default:
			v.I = v.I[:n]
		}
		b.cols[c] = v
	}
	return b
}

// ViewOf is BatchOf over read-only columns the caller does not own, such
// as a memoized segment's: the batch shares them without copying, and
// neither it nor anyone holding it may write into them or reuse them as
// buffers (View). Appending grows into new buffers; Reset panics.
func ViewOf(schema *Schema, cols []Vector, n int) *Batch {
	b := BatchOf(schema, cols, n)
	for c := range b.cols {
		v := &b.cols[c]
		v.I, v.F, v.S = slices.Clip(v.I), slices.Clip(v.F), slices.Clip(v.S)
	}
	b.view = true
	return b
}

// Release hands the batch's shell and its arenas, or BatchOf's columns, but
// never a view's, back to the pool; neither it nor a vector read from it may
// be used again. Releasing it again does nothing, and in a test binary
// panics.
func (b *Batch) Release() {
	switch {
	case b == nil:
		return
	case b.schema == nil || b.schema == releasedSchema:
		if checked {
			panic("tuple: released a Batch twice")
		}
		return
	case b.nums != nil || b.strs != nil:
		Release(b.nums)
		Release(b.strs)
	case !b.view:
		for _, v := range b.cols {
			Release(v.I)
			Release(v.F)
			Release(v.S)
		}
	}
	releaseShell(b)
}

// View reports whether the batch wraps read-only columns (ViewOf).
func (b *Batch) View() bool { return b.view }

// Schema describes the batch's columns.
func (b *Batch) Schema() *Schema { return b.schema }

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return b.n }

// Cap returns the row capacity the batch was made with. Appending past it
// grows the column buffers; the batch then stays Full.
func (b *Batch) Cap() int { return b.capacity }

// Full reports whether the batch has reached its capacity.
func (b *Batch) Full() bool { return b.n >= b.capacity }

// Reset empties the batch, keeping the column buffers for reuse. A view
// (ViewOf) has no buffers of its own to reuse, and panics.
func (b *Batch) Reset() {
	if b.view {
		panic("tuple: Reset of a read-only view")
	}
	for i := range b.cols {
		v := &b.cols[i]
		v.I, v.F, v.S = v.I[:0], v.F[:0], v.S[:0]
	}
	b.n = 0
}

// Col returns column i's cells; the vector aliases the batch buffer.
func (b *Batch) Col(i int) Vector { return b.cols[i] }

// AppendRow copies one row into the batch, growing the buffers if needed.
func (b *Batch) AppendRow(r Row) {
	for i := range b.cols {
		b.cols[i].appendValue(b.schema.Cols[i].Kind, r[i])
	}
	b.n++
}

// AppendRange copies rows [lo, hi) of src (which must share the schema's
// kinds) into the batch: one bulk copy per column, not a per-row loop.
func (b *Batch) AppendRange(src *Batch, lo, hi int) {
	for c := range b.cols {
		b.cols[c].appendRange(b.schema.Cols[c].Kind, src.cols[c], lo, hi)
	}
	b.n += hi - lo
}

// AppendColumns appends rows [start, end) of a decoded segment to the
// batch, one bulk copy per column: batch column c is read from cols[pick[c]],
// so a batch narrower than the segment's table copies only its own columns.
func (b *Batch) AppendColumns(cols []Vector, pick []int, start, end int) {
	for c, src := range pick {
		b.cols[c].appendRange(b.schema.Cols[c].Kind, cols[src], start, end)
	}
	b.n += end - start
}

// AppendSelected is AppendColumns for the rows a selection vector names,
// gathered column by column.
func (b *Batch) AppendSelected(cols []Vector, pick []int, sel []int32) {
	for c, src := range pick {
		b.cols[c].appendGather(b.schema.Cols[c].Kind, cols[src], sel)
	}
	b.n += len(sel)
}

// AppendProjected appends one row of a wider schema: batch column c takes
// r[pick[c]].
func (b *Batch) AppendProjected(r Row, pick []int) {
	for c, src := range pick {
		b.cols[c].appendValue(b.schema.Cols[c].Kind, r[src])
	}
	b.n++
}

// AppendJoined appends hi-lo rows to the batch: output row k is the
// columns picks[0] of row ids[0][lo+k] of srcs[0], followed by the columns
// picks[1] of row ids[1][lo+k] of srcs[1], and so on — the late
// materialization step of a join that carried its partial tuples as one
// row id per input. Cells are gathered column by column.
func (b *Batch) AppendJoined(srcs []*Batch, picks [][]int, ids [][]int32, lo, hi int) {
	c := 0
	for r, src := range srcs {
		for _, col := range picks[r] {
			b.cols[c].appendGather(b.schema.Cols[c].Kind, src.cols[col], ids[r][lo:hi])
			c++
		}
	}
	b.n += hi - lo
}

// Row materializes row i as a freshly allocated Row.
func (b *Batch) Row(i int) Row { return b.AppendRowTo(make(Row, 0, len(b.cols)), i) }

// AppendRowTo appends row i's values to dst and returns it; pass a reused
// scratch slice (dst[:0]) to read rows without allocating.
func (b *Batch) AppendRowTo(dst Row, i int) Row {
	dst = slices.Grow(dst, len(b.cols))
	for c := range b.cols {
		dst = append(dst, b.cols[c].Value(b.schema.Cols[c].Kind, i))
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
// does: one arena per call, however many rows, filled column by column,
// and at most one growth of dst.
func (b *Batch) AppendRows(dst []Row) []Row {
	w := len(b.cols)
	arena := make([]Value, b.n*w)
	for c, col := range b.cols {
		switch k := b.schema.Cols[c].Kind; k {
		case KindFloat64:
			for i, x := range col.F {
				arena[i*w+c] = Value{K: k, F: x}
			}
		case KindString:
			for i, x := range col.S {
				arena[i*w+c] = Value{K: k, S: x}
			}
		default:
			for i, x := range col.I {
				arena[i*w+c] = Value{K: k, I: x}
			}
		}
	}
	if need := len(dst) + b.n; need > cap(dst) {
		// The headers grow once, by at least doubling as append does.
		// (slices.Grow makes a second allocation under -race.)
		dst = append(make([]Row, 0, max(need, 2*cap(dst))), dst...)
	}
	for i := 0; i < b.n; i++ {
		dst = append(dst, arena[i*w:(i+1)*w:(i+1)*w])
	}
	return dst
}

// FNV-1a parameters shared by the scalar and vectorized hash paths.
const (
	hashBasis uint64 = 14695981039346656037
	hashPrime uint64 = 1099511628211
)

// HashColumns writes, for each row, the combined hash of the key columns
// into dst and returns it. It takes dst over: too short, dst goes back to
// the working-memory pool (Resize), so it must be the pool's or unowned.
// The combination matches HashRowKey, so columnar build sides and row
// probe sides hash identically. The per-kind dispatch is hoisted out of
// the row loop: each key column is hashed in one tight pass.
func (b *Batch) HashColumns(keys []int, dst []uint64) []uint64 {
	dst = Resize(dst, b.n)
	b.hashInto(keys, 0, dst)
	return dst
}

// hashInto writes the key hashes of rows [lo, lo+len(dst)) into dst.
func (b *Batch) hashInto(keys []int, lo int, dst []uint64) {
	for i := range dst {
		dst[i] = hashBasis
	}
	hi := lo + len(dst)
	for _, k := range keys {
		col := b.cols[k]
		switch b.schema.Cols[k].Kind {
		case KindString:
			for i, s := range col.S[lo:hi] {
				dst[i] = dst[i]*hashPrime ^ HashString(s)
			}
		case KindFloat64:
			for i, f := range col.F[lo:hi] {
				dst[i] = dst[i]*hashPrime ^ hashFloat(f)
			}
		default:
			for i, v := range col.I[lo:hi] {
				dst[i] = dst[i]*hashPrime ^ HashInt(v)
			}
		}
	}
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

// Key is the cell type of a join-key column.
type Key interface{ int64 | float64 | string }

// SameKey reports whether two key cells are equal under Compare's rule:
// ==, with NaN equal to NaN.
func SameKey[T Key](a, b T) bool { return a == b || a != a && b != b }
