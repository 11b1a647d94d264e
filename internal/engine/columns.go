package engine

import (
	"math/bits"

	"repro/internal/tuple"
)

// columns is a growing table of typed columns drawn from the working-memory
// pool: the state of a blocking operator. Column c holds cells of kinds[c]
// in the slice of its Vector that the kind picks; every slice is as long as
// the table's capacity, rows past n are zero, and growing takes arrays of
// the next power of two and hands the old ones back.
type columns struct {
	kinds []tuple.Kind
	cols  []tuple.Vector
	n     int
	cap   int
}

// reset empties the table for columns of the given kinds, handing its
// arrays back.
func (t *columns) reset(kinds []tuple.Kind) {
	t.release()
	t.kinds = kinds
	t.cols = append(t.cols[:0], make([]tuple.Vector, len(kinds))...)
}

// release hands the table's arrays back to the pool.
func (t *columns) release() {
	for _, v := range t.cols {
		tuple.Release(v.I)
		tuple.Release(v.F)
		tuple.Release(v.S)
	}
	clear(t.cols)
	t.n, t.cap = 0, 0
}

// grow makes room for rows 0..need-1.
func (t *columns) grow(need int) {
	if need <= t.cap {
		return
	}
	c := 1 << bits.Len(uint(max(need, 16)-1))
	for i, k := range t.kinds {
		v := &t.cols[i]
		switch k {
		case tuple.KindFloat64:
			v.F = regrow(v.F, t.n, c)
		case tuple.KindString:
			v.S = regrow(v.S, t.n, c)
		default:
			v.I = regrow(v.I, t.n, c)
		}
	}
	t.cap = c
}

// regrow returns c zeroed cells from the pool holding s's first n.
func regrow[T tuple.Cell](s []T, n, c int) []T {
	ns := tuple.Take[T](c)
	copy(ns, s[:n])
	clear(ns[n:])
	tuple.Release(s)
	return ns
}

// appendBatch copies every row of b, whose columns are the table's kinds.
func (t *columns) appendBatch(b *tuple.Batch) {
	m := b.Len()
	t.grow(t.n + m)
	for c, k := range t.kinds {
		src, dst := b.Col(c), &t.cols[c]
		switch k {
		case tuple.KindFloat64:
			copy(dst.F[t.n:], src.F[:m])
		case tuple.KindString:
			copy(dst.S[t.n:], src.S[:m])
		default:
			copy(dst.I[t.n:], src.I[:m])
		}
	}
	t.n += m
}

// appendRow appends row i's values to dst and returns it.
func (t *columns) appendRow(dst tuple.Row, i int) tuple.Row {
	for c, k := range t.kinds {
		dst = append(dst, t.cols[c].Value(k, i))
	}
	return dst
}

// groupTable is a set of distinct keys — HashAgg's groups, Distinct's rows
// — held as typed columns: group g's key is row g of the table's first
// nkeys columns, and the columns after them hold the state its owner keeps
// per group. A batch's rows find their groups by the hash of their key
// columns (Batch.HashColumns) through a HashIndex over the groups' hashes,
// then a typed match of the key cells, under which 0 and -0 are one key
// and NaN equals NaN; a key column holds one kind, so keys of different
// kinds never meet.
type groupTable struct {
	columns
	nkeys  int
	hashes []uint64
	index  tuple.HashIndex
	// src holds the key columns of the batch being looked up; gids and
	// fresh are lookup's results.
	src         []tuple.Vector
	gids, fresh []int32
}

// reset empties the table for keys of kinds[:nkeys] and state of the rest.
func (t *groupTable) reset(kinds []tuple.Kind, nkeys int) {
	t.columns.reset(kinds)
	t.nkeys = nkeys
	t.index.Reset(0)
}

// release hands every array of the table back to the pool.
func (t *groupTable) release() {
	t.columns.release()
	t.index.Release()
	tuple.Release(t.hashes)
	tuple.Release(t.gids)
	tuple.Release(t.fresh)
	clear(t.src[:cap(t.src)])
	t.hashes, t.gids, t.fresh = nil, nil, nil
}

// lookup finds the group of each row of b, whose key columns are keys and
// whose key hashes are hashes, adding the groups it does not find: gids[i]
// is row i's group, and fresh lists the rows that added one, in the order
// the groups were added. Both are valid until the next lookup.
func (t *groupTable) lookup(b *tuple.Batch, keys []int, hashes []uint64) (gids, fresh []int32) {
	t.src = t.src[:0]
	for _, k := range keys {
		t.src = append(t.src, b.Col(k))
	}
	gids, fresh = tuple.Resize(t.gids, len(hashes)), tuple.Resize(t.fresh, len(hashes))[:0]
rows:
	for i, h := range hashes {
		for g := t.index.First(h); g >= 0; g = t.index.Next(g) {
			if t.hashes[g] == h && t.sameKey(g, i) {
				gids[i] = g
				continue rows
			}
		}
		gids[i], fresh = t.add(h, i), append(fresh, int32(i))
	}
	t.gids, t.fresh = gids, fresh
	return gids, fresh
}

// sameKey reports whether group g's key equals row i's of t.src.
func (t *groupTable) sameKey(g int32, i int) bool {
	for c, k := range t.kinds[:t.nkeys] {
		a, b := &t.cols[c], &t.src[c]
		switch k {
		case tuple.KindFloat64:
			if !tuple.SameKey(a.F[g], b.F[i]) {
				return false
			}
		case tuple.KindString:
			if a.S[g] != b.S[i] {
				return false
			}
		default:
			if a.I[g] != b.I[i] {
				return false
			}
		}
	}
	return true
}

// add makes row i of t.src, of key hash h, a new group and returns it.
func (t *groupTable) add(h uint64, i int) int32 {
	g := t.n
	t.grow(g + 1)
	for c, k := range t.kinds[:t.nkeys] {
		a, b := &t.cols[c], &t.src[c]
		switch k {
		case tuple.KindFloat64:
			a.F[g] = b.F[i]
		case tuple.KindString:
			a.S[g] = b.S[i]
		default:
			a.I[g] = b.I[i]
		}
	}
	t.n++
	if g == len(t.hashes) {
		t.hashes = regrow(t.hashes, g, t.cap)
	}
	t.hashes[g] = h
	if g >= t.index.Cap() {
		t.index.Reset(t.cap)
		t.index.Insert(0, t.hashes[:g])
	}
	t.index.Insert(g, t.hashes[g:g+1])
	return int32(g)
}
