package engine

import (
	"cmp"
	"slices"

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

// Sort is a blocking in-memory sort with a stable order. The child's
// batches are appended to typed columns from the working-memory pool; a key
// that is a bare column is read from them in place, any other key is
// evaluated once per row into a value slice of its own, and an int32
// permutation of the rows is sorted under tuple.Compare and served by
// gather.
type Sort struct {
	child Iterator
	keys  []SortKey

	// rows holds every input row; key j is column col[j] of it, or vals[j]
	// when col[j] < 0 (vals is nil when no key is).
	rows  columns
	kinds []tuple.Kind
	pick  []int
	col   []int
	vals  [][]tuple.Value
	row   tuple.Row

	perm   []int32
	idx    int
	ob     *tuple.Batch
	ostats *OpStats
}

// NewSort wraps child with an ORDER BY.
func NewSort(child Iterator, keys []SortKey) *Sort {
	sch := child.Schema()
	ints := make([]int, sch.Len()+len(keys))
	s := &Sort{child: child, keys: keys, kinds: make([]tuple.Kind, sch.Len()), pick: ints[:sch.Len()], col: ints[sch.Len():]}
	for c, col := range sch.Cols {
		s.kinds[c], s.pick[c] = col.Kind, c
	}
	for j, k := range keys {
		c, ok := k.E.(expr.Col)
		if s.col[j] = c.Idx; !ok || c.Idx < 0 || c.Idx >= sch.Len() {
			s.col[j], s.vals = -1, make([][]tuple.Value, len(keys))
		}
	}
	return s
}

// Schema implements Iterator.
func (s *Sort) Schema() *tuple.Schema { return s.child.Schema() }

// Open implements Iterator: drains and sorts the child.
func (s *Sort) Open() error {
	s.rows.reset(s.kinds)
	s.idx = 0
	if err := s.child.Open(); err != nil {
		return err
	}
	defer s.child.Close()
	for {
		b, ok, err := s.child.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.rows.appendBatch(b)
	}
	n := s.rows.n
	for j := range s.vals {
		s.vals[j] = slices.Grow(s.vals[j][:0], n)[:n]
	}
	for i := 0; i < n && s.vals != nil; i++ {
		s.row = s.rows.appendRow(s.row[:0], i)
		for j, k := range s.keys {
			if s.col[j] < 0 {
				v, err := k.E.Eval(s.row)
				if err != nil {
					return err
				}
				s.vals[j][i] = v
			}
		}
	}
	s.perm = tuple.Resize(s.perm, n)
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	slices.SortFunc(s.perm, func(a, b int32) int {
		for j, k := range s.keys {
			if c := tuple.Compare(s.key(j, a), s.key(j, b)); c != 0 && k.Desc {
				return -c
			} else if c != 0 {
				return c
			}
		}
		return cmp.Compare(a, b)
	})
	return nil
}

// key returns row r's value of sort key j.
func (s *Sort) key(j int, r int32) tuple.Value {
	if c := s.col[j]; c >= 0 {
		return s.rows.cols[c].Value(s.kinds[c], int(r))
	}
	return s.vals[j][r]
}

// NextBatch implements Iterator.
func (s *Sort) NextBatch() (*tuple.Batch, bool, error) {
	if s.ostats != nil {
		return timedBatch(s.ostats, s.nextBatch)
	}
	return s.nextBatch()
}

func (s *Sort) nextBatch() (*tuple.Batch, bool, error) {
	return serveGather(&s.ob, s.child.Schema(), s.rows.cols, s.pick, s.perm, &s.idx)
}

// Close implements Iterator, handing the rows, permutation and output
// batch back to the pool.
func (s *Sort) Close() error {
	s.rows.release()
	tuple.Release(s.perm)
	s.perm, s.idx = nil, 0
	clear(s.vals)
	return closeOutput(&s.ob, nil)
}
