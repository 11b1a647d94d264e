package engine

import (
	"repro/internal/tuple"
)

// DefaultBatchSize is the number of rows moved per NextBatch call. Large
// enough to amortize per-call dispatch over data work, small enough to
// keep a batch of every operator in cache.
const DefaultBatchSize = 1024

// sizedOutput returns an operator's reused output batch, emptied, with room
// for an input of the given row count up to DefaultBatchSize. The batch is
// allocated on first use at the size of that first input and replaced only
// when a larger input follows, so a plan moving 25 rows never pays for 1024;
// the batch handed out by the previous call stays valid until this one.
// A replaced batch goes back to the working-memory pool.
func sizedOutput(out **tuple.Batch, schema *tuple.Schema, rows int) *tuple.Batch {
	if want := min(rows, DefaultBatchSize); *out == nil || (*out).Cap() < want {
		(*out).Release()
		*out = tuple.NewBatch(schema, want)
	}
	(*out).Reset()
	return *out
}

// closeOutput is an operator's Close: it releases the output batch and
// closes child, if there is one.
func closeOutput(out **tuple.Batch, child Iterator) error {
	(*out).Release()
	if *out = nil; child == nil {
		return nil
	}
	return child.Close()
}

// serveRowSlice serves rows[*idx:] through a reused batch no larger than
// the rows need, advancing *idx — the NextBatch body of Values, which holds
// its output as a materialized row slice.
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

// serveGather serves rows perm[*idx:] of cols through a reused batch no
// larger than they need, advancing *idx: output column c gathers
// cols[pick[c]] — the NextBatch body of the blocking operators.
func serveGather(out **tuple.Batch, schema *tuple.Schema, cols []tuple.Vector, pick []int, perm []int32, idx *int) (*tuple.Batch, bool, error) {
	if *idx >= len(perm) {
		return nil, false, nil
	}
	b := sizedOutput(out, schema, len(perm)-*idx)
	n := min(len(perm)-*idx, b.Cap())
	b.AppendSelected(cols, pick, perm[*idx:*idx+n])
	*idx += n
	return b, true, nil
}
