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
// so folding allocates when a new group appears, not per row.
type HashAgg struct {
	child  Iterator
	groups []GroupCol
	aggs   []AggSpec
	// groupKeys is 0..len(groups)-1: the key columns of a row of group
	// values, for tuple.HashRowKey.
	groupKeys []int
	schema    *tuple.Schema

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
	return &HashAgg{child: child, groups: groups, aggs: aggs, groupKeys: allKeys(len(groups)), schema: tuple.NewSchema(cols...)}
}

// allKeys returns 0..n-1: every column of an n-column row as a key.
func allKeys(n int) []int {
	keys := make([]int, n)
	for i := range keys {
		keys[i] = i
	}
	return keys
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

// aggTable is a set of rows of values — HashAgg's groups, Distinct's rows —
// that finds a row by the hash of its values plus a check of kind and
// Equal: a hash table chained through accum.next, plus the entries in the
// order they were first seen.
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

// foldRow folds one input row into the group table.
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
	t := newAggTable()
	err := drainBatches(a.child, func(row tuple.Row) error {
		return a.foldRow(t, row)
	})
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
	return closeOutput(&a.ob, nil)
}
