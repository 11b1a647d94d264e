package tuple

import (
	"math/bits"
	"slices"
)

// maxChunks bounds a ChunkedBatch: row ids are int32 and chunk k starts at
// row c0·(2^k−1), so no store reaches a 33rd chunk.
const maxChunks = 32

// ChunkedBatch is an append-only store of rows in typed column vectors —
// a hash join's build side — cut into chunks that grow geometrically.
// Chunk k holds c0·2^k rows, c0 being the first appended batch's length
// rounded up to a power of two, so row id g lives in chunk
// k = bits.Len(g>>log2(c0) + 1) − 1 at offset g − c0·(2^k−1). An appended
// batch that straddles a chunk boundary is split across the two chunks.
// Cells are copied once, on Append, and never moved: the only room beyond
// the cells is the unfilled tail of the last chunk, where a batch grown by
// doubling allocates two to four times its rows.
type ChunkedBatch struct {
	schema *Schema
	chunks [maxChunks]*Batch
	used   int  // chunks in use
	shift  uint // log2(c0)
	n      int
}

// Loc is a row's place in a ChunkedBatch: its chunk and its offset there.
type Loc struct{ Chunk, Off int32 }

// Reset hands the store's chunks back to the working-memory pool and
// empties it for rows of schema; the next Append picks c0.
func (c *ChunkedBatch) Reset(schema *Schema) {
	for _, ch := range c.chunks[:c.used] {
		ch.Release()
	}
	*c = ChunkedBatch{schema: schema}
}

// Len returns the number of rows in the store.
func (c *ChunkedBatch) Len() int { return c.n }

// Append copies every row of src into the store, one bulk copy per column
// and chunk it lands in: store column k is src column pick[k], of the same
// kind, so a store narrower than its input keeps only its own columns.
func (c *ChunkedBatch) Append(src *Batch, pick []int) {
	if src.n == 0 {
		return
	}
	if c.used == 0 {
		c.shift = uint(bits.Len(uint(src.n - 1)))
	}
	for lo := 0; lo < src.n; {
		if c.used == 0 || c.chunks[c.used-1].Full() {
			c.chunks[c.used] = NewBatch(c.schema, 1<<(c.shift+uint(c.used)))
			c.used++
		}
		last := c.chunks[c.used-1]
		hi := min(src.n, lo+last.capacity-last.n)
		last.AppendColumns(src.cols, pick, lo, hi)
		lo = hi
	}
	c.n += src.n
}

// Loc returns where row id lives: one shift and one bits.Len.
func (c *ChunkedBatch) Loc(id int32) Loc {
	k := bits.Len32(uint32(id)>>c.shift+1) - 1
	return Loc{Chunk: int32(k), Off: id - int32(1<<k-1)<<c.shift}
}

// HashRange writes the key hashes of rows [lo, hi) into dst and returns
// it: HashColumns over a range of the store, a chunk at a time. Like
// HashColumns it takes dst over.
func (c *ChunkedBatch) HashRange(keys []int, lo, hi int, dst []uint64) []uint64 {
	dst = Resize(dst, hi-lo)
	for out := dst; len(out) > 0; {
		at := c.Loc(int32(lo))
		ch := c.chunks[at.Chunk]
		m := min(len(out), ch.n-int(at.Off))
		ch.hashInto(keys, int(at.Off), out[:m])
		out, lo = out[m:], lo+m
	}
	return dst
}

// column returns column col of every chunk in t's storage: the table a
// typed pass over Locs indexes by chunk.
func column[T any](c *ChunkedBatch, col int, t *[maxChunks][]T, of func(Vector) []T) [][]T {
	for k, ch := range c.chunks[:c.used] {
		t[k] = of(ch.cols[col])
	}
	return t[:c.used]
}

func ints(v Vector) []int64     { return v.I }
func floats(v Vector) []float64 { return v.F }
func strs(v Vector) []string    { return v.S }

// MatchKeys keeps, of the row pairs (at[k] of a, bi[k] of b), those whose
// key columns ak and bk are equal, compacting both lists in place, and
// returns how many are left: the verification step of a hash probe, one
// typed pass per key column. Keys of different kinds never match.
func MatchKeys(a *ChunkedBatch, ak []int, at []Loc, b *Batch, bk []int, bi []int32) int {
	n := len(at)
	for x, col := range ak {
		k, vb := a.schema.Cols[col].Kind, b.cols[bk[x]]
		switch {
		case k != b.schema.Cols[bk[x]].Kind:
			return 0
		case k == KindFloat64:
			var t [maxChunks][]float64
			n = matchKey(column(a, col, &t, floats), at[:n], vb.F, bi)
		case k == KindString:
			var t [maxChunks][]string
			n = matchKey(column(a, col, &t, strs), at[:n], vb.S, bi)
		default:
			var t [maxChunks][]int64
			n = matchKey(column(a, col, &t, ints), at[:n], vb.I, bi)
		}
	}
	return n
}

func matchKey[T Key](a [][]T, at []Loc, b []T, bi []int32) int {
	n := 0
	for k, l := range at {
		if SameKey(a[l.Chunk][l.Off], b[bi[k]]) {
			at[n], bi[n] = l, bi[k]
			n++
		}
	}
	return n
}

// AppendJoinedChunked appends len(at) rows to the batch: output row k is
// the columns bpick of build row at[k] followed by the columns ppick of
// probe row pi[k], gathered column by column. A join that carries every
// column passes every column of both.
func (b *Batch) AppendJoinedChunked(build *ChunkedBatch, bpick []int, at []Loc, probe *Batch, ppick []int, pi []int32) {
	for c, src := range bpick {
		v := &b.cols[c]
		switch b.schema.Cols[c].Kind {
		case KindFloat64:
			var t [maxChunks][]float64
			v.F = gatherAt(v.F, column(build, src, &t, floats), at)
		case KindString:
			var t [maxChunks][]string
			v.S = gatherAt(v.S, column(build, src, &t, strs), at)
		default:
			var t [maxChunks][]int64
			v.I = gatherAt(v.I, column(build, src, &t, ints), at)
		}
	}
	w := len(bpick)
	for c, src := range ppick {
		b.cols[w+c].appendGather(b.schema.Cols[w+c].Kind, probe.cols[src], pi)
	}
	b.n += len(at)
}

func gatherAt[T any](dst []T, src [][]T, at []Loc) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(at))[:n+len(at)]
	for k, l := range at {
		dst[n+k] = src[l.Chunk][l.Off]
	}
	return dst
}
