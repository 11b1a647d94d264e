package engine

import (
	"sort"

	"repro/internal/expr"
	"repro/internal/tuple"
)

// SortKey is one ORDER BY term.
type SortKey struct {
	// E computes the sort value from an input row.
	E expr.Expr
	// Desc inverts the order for this key.
	Desc bool
}

// Sort is a blocking in-memory sort with a stable order. The child is
// drained batch-at-a-time and the sorted rows are served in batches.
type Sort struct {
	child Iterator
	keys  []SortKey

	out    []tuple.Row
	idx    int
	ob     *tuple.Batch
	ostats *OpStats
}

// NewSort wraps child with an ORDER BY.
func NewSort(child Iterator, keys []SortKey) *Sort {
	return &Sort{child: child, keys: keys}
}

// Schema implements Iterator.
func (s *Sort) Schema() *tuple.Schema { return s.child.Schema() }

// Open implements Iterator: drains and sorts the child.
func (s *Sort) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	defer s.child.Close()
	s.out = s.out[:0]
	for {
		b, ok, err := s.child.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.out = append(s.out, b.Rows()...)
	}
	// Precompute key values to avoid re-evaluating during comparisons.
	keyVals := make([][]tuple.Value, len(s.out))
	for i, row := range s.out {
		kv := make([]tuple.Value, len(s.keys))
		for j, k := range s.keys {
			v, err := k.E.Eval(row)
			if err != nil {
				return err
			}
			kv[j] = v
		}
		keyVals[i] = kv
	}
	idx := make([]int, len(s.out))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for j, k := range s.keys {
			c := tuple.Compare(keyVals[idx[a]][j], keyVals[idx[b]][j])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sorted := make([]tuple.Row, len(s.out))
	for i, j := range idx {
		sorted[i] = s.out[j]
	}
	s.out = sorted
	s.idx = 0
	return nil
}

// NextBatch implements Iterator.
func (s *Sort) NextBatch() (*tuple.Batch, bool, error) {
	if s.ostats != nil {
		return timedBatch(s.ostats, s.nextBatch)
	}
	return s.nextBatch()
}

func (s *Sort) nextBatch() (*tuple.Batch, bool, error) {
	return serveRowSlice(&s.ob, s.child.Schema(), s.out, &s.idx)
}

// Close implements Iterator.
func (s *Sort) Close() error {
	s.out = nil
	return closeOutput(&s.ob, nil)
}
