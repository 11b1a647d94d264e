package engine

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/tuple"
)

// Filter passes through rows satisfying a boolean predicate: each child
// batch is evaluated in one pass and survivors are copied into a reused
// output batch.
type Filter struct {
	child Iterator
	pred  expr.Expr

	out    *tuple.Batch
	rowBuf tuple.Row
	ostats *OpStats
}

// NewFilter wraps child with predicate pred (bound to child's schema).
func NewFilter(child Iterator, pred expr.Expr) *Filter {
	return &Filter{child: child, pred: pred}
}

// Schema implements Iterator.
func (f *Filter) Schema() *tuple.Schema { return f.child.Schema() }

// Open implements Iterator.
func (f *Filter) Open() error {
	return f.child.Open()
}

// NextBatch implements Iterator.
func (f *Filter) NextBatch() (*tuple.Batch, bool, error) {
	if f.ostats != nil {
		return timedBatch(f.ostats, f.nextBatch)
	}
	return f.nextBatch()
}

func (f *Filter) nextBatch() (*tuple.Batch, bool, error) {
	for {
		in, ok, err := f.child.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		n := in.Len()
		out := sizedOutput(&f.out, in.Schema(), n)
		for i := 0; i < n; i++ {
			f.rowBuf = in.AppendRowTo(f.rowBuf[:0], i)
			keep, err := expr.EvalBool(f.pred, f.rowBuf)
			if err != nil {
				return nil, false, err
			}
			if keep {
				out.AppendRange(in, i, i+1)
			}
		}
		if out.Len() > 0 {
			return out, true, nil
		}
	}
}

// Close implements Iterator.
func (f *Filter) Close() error { return closeOutput(&f.out, f.child) }

// ProjectCol is one output column of a projection.
type ProjectCol struct {
	// Name labels the output column.
	Name string
	// Kind is the declared output kind; Eval results are checked against it.
	Kind tuple.Kind
	// E computes the output value from an input row.
	E expr.Expr
}

// Project computes a new row from expressions over the child's rows,
// batch-at-a-time.
type Project struct {
	child  Iterator
	cols   []ProjectCol
	schema *tuple.Schema

	out    *tuple.Batch
	rowBuf tuple.Row
	outBuf tuple.Row
	ostats *OpStats
}

// NewProject builds a projection.
func NewProject(child Iterator, cols []ProjectCol) *Project {
	sc := make([]tuple.Column, len(cols))
	for i, c := range cols {
		sc[i] = tuple.Column{Name: c.Name, Kind: c.Kind}
	}
	return &Project{child: child, cols: cols, schema: tuple.NewSchema(sc...)}
}

// Schema implements Iterator.
func (pr *Project) Schema() *tuple.Schema { return pr.schema }

// Open implements Iterator.
func (pr *Project) Open() error {
	return pr.child.Open()
}

// NextBatch implements Iterator.
func (pr *Project) NextBatch() (*tuple.Batch, bool, error) {
	if pr.ostats != nil {
		return timedBatch(pr.ostats, pr.nextBatch)
	}
	return pr.nextBatch()
}

func (pr *Project) nextBatch() (*tuple.Batch, bool, error) {
	in, ok, err := pr.child.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	if pr.outBuf == nil {
		pr.outBuf = make(tuple.Row, len(pr.cols))
	}
	n := in.Len()
	out := sizedOutput(&pr.out, pr.schema, n)
	for i := 0; i < n; i++ {
		pr.rowBuf = in.AppendRowTo(pr.rowBuf[:0], i)
		for c, pc := range pr.cols {
			v, err := pc.E.Eval(pr.rowBuf)
			if err != nil {
				return nil, false, err
			}
			if v.K != pc.Kind {
				return nil, false, fmt.Errorf("engine: projection %q produced %v, declared %v", pc.Name, v.K, pc.Kind)
			}
			pr.outBuf[c] = v
		}
		out.AppendRow(pr.outBuf)
	}
	return out, true, nil
}

// Close implements Iterator.
func (pr *Project) Close() error { return closeOutput(&pr.out, pr.child) }

// Limit passes through at most N rows. Full child batches within the
// budget pass through unchanged (zero copy); the batch straddling the
// limit is truncated into a private buffer.
type Limit struct {
	child Iterator
	n     int
	seen  int

	out    *tuple.Batch
	ostats *OpStats
}

// NewLimit wraps child with a row cap.
func NewLimit(child Iterator, n int) *Limit {
	return &Limit{child: child, n: n}
}

// Schema implements Iterator.
func (l *Limit) Schema() *tuple.Schema { return l.child.Schema() }

// Open implements Iterator.
func (l *Limit) Open() error {
	l.seen = 0
	return l.child.Open()
}

// NextBatch implements Iterator.
func (l *Limit) NextBatch() (*tuple.Batch, bool, error) {
	if l.ostats != nil {
		return timedBatch(l.ostats, l.nextBatch)
	}
	return l.nextBatch()
}

func (l *Limit) nextBatch() (*tuple.Batch, bool, error) {
	if l.seen >= l.n {
		return nil, false, nil
	}
	in, ok, err := l.child.NextBatch()
	if err != nil || !ok {
		return nil, false, err
	}
	take := l.n - l.seen
	if in.Len() <= take {
		l.seen += in.Len()
		return in, true, nil
	}
	out := sizedOutput(&l.out, in.Schema(), take)
	out.AppendRange(in, 0, take)
	l.seen += take
	return out, true, nil
}

// Close implements Iterator.
func (l *Limit) Close() error { return closeOutput(&l.out, l.child) }

// Distinct suppresses duplicate rows (SELECT DISTINCT). It is streaming:
// every row is looked up in a group table keyed on all its columns — found
// the way HashAgg finds groups, by hash and a typed match — and the rows
// that add a key are gathered into the output, so memory grows with the
// number of distinct rows seen.
type Distinct struct {
	child  Iterator
	kinds  []tuple.Kind
	keys   []int
	seen   groupTable
	hashes []uint64

	out    *tuple.Batch
	ostats *OpStats
}

// NewDistinct wraps child with duplicate elimination.
func NewDistinct(child Iterator) *Distinct { return newDistinct(child, child.Schema()) }

// newDistinct is NewDistinct over rows of sch.
func newDistinct(child Iterator, sch *tuple.Schema) *Distinct {
	d := &Distinct{child: child, kinds: make([]tuple.Kind, sch.Len()), keys: allKeys(sch.Len())}
	for c, col := range sch.Cols {
		d.kinds[c] = col.Kind
	}
	return d
}

// Schema implements Iterator.
func (d *Distinct) Schema() *tuple.Schema { return d.child.Schema() }

// Open implements Iterator.
func (d *Distinct) Open() error {
	d.seen.reset(d.kinds, len(d.kinds))
	return d.child.Open()
}

// NextBatch implements Iterator.
func (d *Distinct) NextBatch() (*tuple.Batch, bool, error) {
	if d.ostats != nil {
		return timedBatch(d.ostats, d.nextBatch)
	}
	return d.nextBatch()
}

func (d *Distinct) nextBatch() (*tuple.Batch, bool, error) {
	for {
		in, ok, err := d.child.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		out := sizedOutput(&d.out, in.Schema(), in.Len())
		d.hashes = in.HashColumns(d.keys, d.hashes)
		if _, fresh := d.seen.lookup(in, d.keys, d.hashes); len(fresh) > 0 {
			out.AppendSelected(d.seen.src, d.keys, fresh)
			return out, true, nil
		}
	}
}

// Close implements Iterator, handing the table, scratch and output batch
// back to the pool.
func (d *Distinct) Close() error {
	d.seen.release()
	tuple.Release(d.hashes)
	d.hashes = nil
	return closeOutput(&d.out, d.child)
}

// Values is a leaf iterator over in-memory rows.
type Values struct {
	schema *tuple.Schema
	rows   []tuple.Row
	idx    int
	out    *tuple.Batch
	ostats *OpStats
}

// NewValues builds a constant relation.
func NewValues(schema *tuple.Schema, rows []tuple.Row) *Values {
	return &Values{schema: schema, rows: rows}
}

// Schema implements Iterator.
func (v *Values) Schema() *tuple.Schema { return v.schema }

// Open implements Iterator.
func (v *Values) Open() error { v.idx = 0; return nil }

// NextBatch implements Iterator.
func (v *Values) NextBatch() (*tuple.Batch, bool, error) {
	if v.ostats != nil {
		return timedBatch(v.ostats, v.nextBatch)
	}
	return v.nextBatch()
}

func (v *Values) nextBatch() (*tuple.Batch, bool, error) {
	return serveRowSlice(&v.out, v.schema, v.rows, &v.idx)
}

// Close implements Iterator.
func (v *Values) Close() error { return closeOutput(&v.out, nil) }
