package tuple

import "math/bits"

// HashIndex is a chained hash index over rows 0..n-1 of a build side, built
// from the rows' key hashes (Batch.HashColumns, ChunkedBatch.HashRange):
// two flat int32 arrays instead of a map of per-key slices, so building
// allocates twice however many rows or distinct keys there are. A bucket
// chains every row whose hash falls into it — rows of different keys
// included — in ascending row order, so a prober walks First/Next, verifies
// the key of each row it visits, and sees equal-key rows in the order they
// were built.
type HashIndex struct {
	// heads[b] is the first row of bucket b, next[i] the row after i in its
	// bucket; -1 ends a chain.
	heads []int32
	next  []int32
	// shift takes the top log2(len(heads)) bits of the mixed hash.
	shift uint
}

// hashMix spreads a hash over the high bits the bucket number is read from
// (Fibonacci hashing): FNV-1a's own high bits barely depend on the last
// bytes absorbed.
const hashMix = 0x9E3779B97F4A7C15

// Build indexes rows 0..len(hashes)-1, replacing what the index held.
func (ix *HashIndex) Build(hashes []uint64) {
	ix.Reset(len(hashes))
	ix.Insert(0, hashes)
}

// Reset empties the index and sizes it for rows 0..n-1, reusing its arrays
// (Resize). Buckets number at least twice the rows.
func (ix *HashIndex) Reset(n int) {
	logSize := bits.Len(uint(2*n - 1))
	if n == 0 {
		logSize = 0
	}
	ix.heads = Resize(ix.heads, 1<<logSize)
	for b := range ix.heads {
		ix.heads[b] = -1
	}
	ix.next = Resize(ix.next, n)
	ix.shift = uint(64 - logSize)
}

// Cap returns how many rows Reset can size the index for without
// allocating.
func (ix *HashIndex) Cap() int { return min(cap(ix.next), cap(ix.heads)/2) }

// Release hands the arrays back to the pool; Reset or Build before reuse.
func (ix *HashIndex) Release() {
	Release(ix.heads)
	Release(ix.next)
	*ix = HashIndex{}
}

// Insert chains rows first..first+len(hashes)-1, whose key hashes those
// are, at the head of their buckets in descending row order. Inserting
// every range of a Reset index, the last range first, leaves every chain
// ascending.
func (ix *HashIndex) Insert(first int, hashes []uint64) {
	next := ix.next[first : first+len(hashes)]
	for i := len(hashes) - 1; i >= 0; i-- {
		b := (hashes[i] * hashMix) >> ix.shift
		next[i] = ix.heads[b]
		ix.heads[b] = int32(first + i)
	}
}

// First returns the first row of the bucket hash h falls into, -1 if the
// bucket is empty. The index must have been built.
func (ix *HashIndex) First(h uint64) int32 { return ix.heads[(h*hashMix)>>ix.shift] }

// Next returns the row after row i in its bucket, -1 at the end.
func (ix *HashIndex) Next(i int32) int32 { return ix.next[i] }
