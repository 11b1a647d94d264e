package engine

import (
	"sort"
	"strconv"

	"repro/internal/expr"
	"repro/internal/tuple"
)

// AggKind enumerates aggregate functions.
type AggKind uint8

const (
	// AggCount counts input rows (COUNT(*) with a nil Arg).
	AggCount AggKind = iota
	// AggSum sums the argument as float64.
	AggSum
	// AggMin keeps the smallest argument value seen.
	AggMin
	// AggMax keeps the largest argument value seen.
	AggMax
	// AggAvg reports sum/count of the argument as float64.
	AggAvg
)

// String returns the SQL-ish lowercase name of the aggregate.
func (k AggKind) String() string {
	return [...]string{"count", "sum", "min", "max", "avg"}[k]
}

// AggSpec is one aggregate output: Kind applied to Arg (nil for COUNT(*)).
// ArgKind declares the argument's type for MIN/MAX, whose output kind is
// data-dependent (it defaults to int64, the zero Kind).
type AggSpec struct {
	// Kind selects the aggregate function.
	Kind AggKind
	// Arg is the aggregated expression; nil means COUNT(*).
	Arg expr.Expr
	// Name labels the output column.
	Name string
	// ArgKind declares Arg's value kind (used by MIN/MAX output typing).
	ArgKind tuple.Kind
}

// GroupCol is one grouping column of a HashAgg.
type GroupCol struct {
	// Name labels the output column.
	Name string
	// Kind is the grouping expression's value kind.
	Kind tuple.Kind
	// E computes the grouping value from an input row.
	E expr.Expr
}

// HashAgg is a blocking hash aggregation with deterministic (sorted by
// group key) output order. The child is drained batch-at-a-time, and a row
// finds its group by the hash of its group values plus an equality check,
// so folding allocates when a new group appears, not per row. With
// Parallelize(dop > 1) the drain runs on the morsel pool: every worker
// folds its morsels into a private group table and the partial states are
// merged at drain time, so the sorted output is identical at any DOP.
type HashAgg struct {
	child  Iterator
	groups []GroupCol
	aggs   []AggSpec
	// groupKeys is 0..len(groups)-1: the key columns of a row of group
	// values, for tuple.HashRowKey.
	groupKeys []int
	schema    *tuple.Schema
	dop       int

	out    []tuple.Row
	idx    int
	ob     *tuple.Batch
	ostats *OpStats
}

// NewHashAgg builds a grouped aggregation. With no group columns it
// produces exactly one row (global aggregates).
func NewHashAgg(child Iterator, groups []GroupCol, aggs []AggSpec) *HashAgg {
	cols := make([]tuple.Column, 0, len(groups)+len(aggs))
	for _, g := range groups {
		cols = append(cols, tuple.Column{Name: g.Name, Kind: g.Kind})
	}
	for _, a := range aggs {
		cols = append(cols, tuple.Column{Name: a.Name, Kind: aggOutputKind(a)})
	}
	groupKeys := make([]int, len(groups))
	for i := range groupKeys {
		groupKeys[i] = i
	}
	return &HashAgg{child: child, groups: groups, aggs: aggs, groupKeys: groupKeys, schema: tuple.NewSchema(cols...)}
}

// aggOutputKind: COUNT yields int64, SUM/AVG yield float64, MIN/MAX yield
// the argument's declared kind.
func aggOutputKind(a AggSpec) tuple.Kind {
	switch a.Kind {
	case AggCount:
		return tuple.KindInt64
	case AggSum, AggAvg:
		return tuple.KindFloat64
	default:
		return a.ArgKind
	}
}

// Schema implements Iterator.
func (a *HashAgg) Schema() *tuple.Schema { return a.schema }

// setParallelism implements parallelizable.
func (a *HashAgg) setParallelism(dop int) { a.dop = normDOP(dop) }

// accum is one group's accumulator state.
type accum struct {
	// hash is the hash of groupV; next chains the groups that share it.
	hash uint64
	next *accum
	// key is the group's position in the output order, rendered at emit.
	key    string
	groupV tuple.Row
	counts []int64
	sums   []float64
	minmax []tuple.Value
	seen   []bool
}

func (a *HashAgg) newAccum(hash uint64, groupV tuple.Row) *accum {
	return &accum{
		hash:   hash,
		groupV: groupV,
		counts: make([]int64, len(a.aggs)),
		sums:   make([]float64, len(a.aggs)),
		minmax: make([]tuple.Value, len(a.aggs)),
		seen:   make([]bool, len(a.aggs)),
	}
}

// aggTable is the set of groups of one drain, or of one worker of a
// parallel drain: a hash table chained through accum.next, plus the groups
// in the order they were first seen.
type aggTable struct {
	byHash map[uint64]*accum
	order  []*accum
	// gv holds the group values of the row being folded.
	gv tuple.Row
}

func newAggTable() *aggTable { return &aggTable{byHash: make(map[uint64]*accum)} }

// find returns the group with the given values, nil if there is none.
// Values of different kinds never share a group, equal payloads or not.
func (t *aggTable) find(hash uint64, groupV tuple.Row) *accum {
next:
	for acc := t.byHash[hash]; acc != nil; acc = acc.next {
		for i, v := range acc.groupV {
			if v.K != groupV[i].K || !tuple.Equal(v, groupV[i]) {
				continue next
			}
		}
		return acc
	}
	return nil
}

func (t *aggTable) insert(acc *accum) {
	acc.next = t.byHash[acc.hash]
	t.byHash[acc.hash] = acc
	t.order = append(t.order, acc)
}

// foldRow folds one input row into the group table. It touches only the
// table and the row, so each parallel worker can fold into a private
// table without locking.
func (a *HashAgg) foldRow(t *aggTable, row tuple.Row) error {
	t.gv = t.gv[:0]
	for _, g := range a.groups {
		v, err := g.E.Eval(row)
		if err != nil {
			return err
		}
		t.gv = append(t.gv, v)
	}
	hash := tuple.HashRowKey(t.gv, a.groupKeys)
	acc := t.find(hash, t.gv)
	if acc == nil {
		acc = a.newAccum(hash, t.gv.Clone())
		t.insert(acc)
	}
	for i, spec := range a.aggs {
		var v tuple.Value
		if spec.Arg != nil {
			var err error
			v, err = spec.Arg.Eval(row)
			if err != nil {
				return err
			}
		}
		acc.counts[i]++
		switch spec.Kind {
		case AggSum, AggAvg:
			acc.sums[i] += v.AsFloat()
		case AggMin:
			if !acc.seen[i] || tuple.Compare(v, acc.minmax[i]) < 0 {
				acc.minmax[i] = v
			}
		case AggMax:
			if !acc.seen[i] || tuple.Compare(v, acc.minmax[i]) > 0 {
				acc.minmax[i] = v
			}
		}
		acc.seen[i] = true
	}
	return nil
}

// mergeAccum folds src into dst: counts and sums add, MIN/MAX compare,
// and the seen flags union — the partial-state merge of the parallel
// drain. COUNT and AVG need no special casing because both are derived
// from counts/sums at emit time.
func (a *HashAgg) mergeAccum(dst, src *accum) {
	for i, spec := range a.aggs {
		dst.counts[i] += src.counts[i]
		dst.sums[i] += src.sums[i]
		switch spec.Kind {
		case AggMin:
			if src.seen[i] && (!dst.seen[i] || tuple.Compare(src.minmax[i], dst.minmax[i]) < 0) {
				dst.minmax[i] = src.minmax[i]
			}
		case AggMax:
			if src.seen[i] && (!dst.seen[i] || tuple.Compare(src.minmax[i], dst.minmax[i]) > 0) {
				dst.minmax[i] = src.minmax[i]
			}
		}
		dst.seen[i] = dst.seen[i] || src.seen[i]
	}
}

// drainSerial aggregates the child on the calling goroutine (DOP=1).
func (a *HashAgg) drainSerial() (*aggTable, error) {
	t := newAggTable()
	err := drainBatches(a.child, func(row tuple.Row) error {
		return a.foldRow(t, row)
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// drainParallel aggregates the child on the morsel pool: the child is
// still pulled by the calling goroutine (so Fetcher/Clock stay on it),
// workers fold private tables, and the partials are merged serially at the
// end.
func (a *HashAgg) drainParallel() (*aggTable, error) {
	tables := make([]*aggTable, a.dop)
	scratch := make([]tuple.Row, a.dop)
	for w := range tables {
		tables[w] = newAggTable()
	}
	if err := a.child.Open(); err != nil {
		a.child.Close()
		return nil, err
	}
	err := runMorsels(a.child, a.dop, func(w int, b *tuple.Batch) error {
		n := b.Len()
		for i := 0; i < n; i++ {
			scratch[w] = b.AppendRowTo(scratch[w][:0], i)
			if err := a.foldRow(tables[w], scratch[w]); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := a.child.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	t := tables[0]
	for _, part := range tables[1:] {
		for _, acc := range part.order {
			if dst := t.find(acc.hash, acc.groupV); dst != nil {
				a.mergeAccum(dst, acc)
			} else {
				t.insert(acc)
			}
		}
	}
	return t, nil
}

// sortKey renders the key groups are ordered by: per group value, its
// kind number, '|', its display form and a NUL. The order is the one
// callers have always seen (so 10 sorts before 9), not the values' own.
func sortKey(buf []byte, groupV tuple.Row) []byte {
	for _, v := range groupV {
		buf = strconv.AppendUint(buf, uint64(v.K), 10)
		buf = append(buf, '|')
		buf = append(buf, v.String()...)
		buf = append(buf, 0)
	}
	return buf
}

// Open implements Iterator: drains the child batch-at-a-time and
// aggregates, then renders the sorted output rows.
func (a *HashAgg) Open() error {
	var t *aggTable
	var err error
	if a.dop > 1 {
		t, err = a.drainParallel()
	} else {
		t, err = a.drainSerial()
	}
	if err != nil {
		return err
	}
	// Global aggregation over zero rows still yields one row of zeros.
	if len(a.groups) == 0 && len(t.order) == 0 {
		t.order = append(t.order, a.newAccum(0, nil))
	}
	var buf []byte
	for _, acc := range t.order {
		buf = sortKey(buf[:0], acc.groupV)
		acc.key = string(buf)
	}
	// Distinct groups can render the same key (a string value may contain
	// the separators); the stable sort keeps those in first-seen order.
	sort.SliceStable(t.order, func(i, j int) bool { return t.order[i].key < t.order[j].key })
	a.out = a.out[:0]
	for _, acc := range t.order {
		row := make(tuple.Row, 0, len(a.groups)+len(a.aggs))
		row = append(row, acc.groupV...)
		for i, spec := range a.aggs {
			switch spec.Kind {
			case AggCount:
				row = append(row, tuple.Int(acc.counts[i]))
			case AggSum:
				row = append(row, tuple.Float(acc.sums[i]))
			case AggAvg:
				if acc.counts[i] == 0 {
					row = append(row, tuple.Float(0))
				} else {
					row = append(row, tuple.Float(acc.sums[i]/float64(acc.counts[i])))
				}
			case AggMin, AggMax:
				row = append(row, acc.minmax[i])
			}
		}
		a.out = append(a.out, row)
	}
	a.idx = 0
	return nil
}

// NextBatch implements Iterator.
func (a *HashAgg) NextBatch() (*tuple.Batch, bool, error) {
	if a.ostats != nil {
		return timedBatch(a.ostats, a.nextBatch)
	}
	return a.nextBatch()
}

func (a *HashAgg) nextBatch() (*tuple.Batch, bool, error) {
	return serveRowSlice(&a.ob, a.schema, a.out, &a.idx)
}

// Close implements Iterator.
func (a *HashAgg) Close() error {
	a.out = nil
	return nil
}
