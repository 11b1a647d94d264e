package engine

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
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

// HashAgg is a blocking hash aggregation with deterministic output order.
// Its state is typed columns (a groupTable): per group the group values,
// one count, and per aggregate a float64 sum or a MIN/MAX cell of the
// argument's kind. The child is folded a batch at a time: group values and
// arguments that are bare columns of their declared kind are read straight
// from the batch's vectors, any other expression is evaluated per row into
// a typed column of its own. Groups are emitted in the order of the text
// "kind|display" of their values (so int 10 sorts before int 9), ties in
// the order the groups were first seen.
type HashAgg struct {
	child  Iterator
	groups []GroupCol
	aggs   []AggSpec
	schema *tuple.Schema

	// evs are the operands evaluated per row into ev, one column each: every
	// group value when any of them is not a bare column (keysEv; hashed as a
	// batch of keySchema), then every argument that is not. keys are the
	// group columns of ev or of the input; ops say how each aggregate folds.
	evs       []evalOperand
	evKinds   []tuple.Kind
	ev        columns
	row       tuple.Row
	keysEv    bool
	keySchema *tuple.Schema
	keys      []int
	ops       []aggOp

	// table's columns are the groups, the count, then one per aggregate
	// that keeps state; pick[c] is output column c's table column.
	table  groupTable
	kinds  []tuple.Kind
	pick   []int
	hashes []uint64

	// perm is the emitted order of the groups; text holds their order keys,
	// group g's ending at ends[g].
	perm   []int32
	ends   []int64
	text   []byte
	idx    int
	ob     *tuple.Batch
	ostats *OpStats
}

// evalOperand is an expression HashAgg evaluates per row: a group value or
// argument of the given kind, read as float64 when asFloat (SUM, AVG and
// COUNT arguments).
type evalOperand struct {
	e       expr.Expr
	kind    tuple.Kind
	asFloat bool
}

// aggOp is how an aggregate folds: its argument is column arg, of cells of
// kind, of the input batch or of ev when evaluated, and its state is table
// column state.
type aggOp struct {
	arg, state int
	kind       tuple.Kind
	evaluated  bool
}

// NewHashAgg builds a grouped aggregation. With no group columns it
// produces exactly one row (global aggregates).
func NewHashAgg(child Iterator, groups []GroupCol, aggs []AggSpec) *HashAgg {
	in, nk := child.Schema(), len(groups)
	ints := make([]int, 2*nk+len(aggs))
	a := &HashAgg{child: child, groups: groups, aggs: aggs, keys: ints[:nk], pick: ints[nk:],
		ops: make([]aggOp, len(aggs)), kinds: make([]tuple.Kind, nk, nk+1+len(aggs))}
	out := make([]tuple.Column, 0, nk+len(aggs))
	evaluate := func(e expr.Expr, k tuple.Kind, asFloat bool) int {
		if a.evs == nil {
			a.evs, a.evKinds = make([]evalOperand, 0, nk+len(aggs)), make([]tuple.Kind, 0, nk+len(aggs))
		}
		a.evs, a.evKinds = append(a.evs, evalOperand{e, k, asFloat}), append(a.evKinds, k)
		return len(a.evs) - 1
	}
	for i, g := range groups {
		out = append(out, tuple.Column{Name: g.Name, Kind: g.Kind})
		a.kinds[i], a.pick[i] = g.Kind, i
		c, k, ok := bareColumn(in, g.E)
		a.keys[i], a.keysEv = c, a.keysEv || !ok || k != g.Kind
	}
	if a.keysEv {
		for i, g := range groups {
			a.keys[i] = evaluate(g.E, g.Kind, false)
		}
		a.keySchema = tuple.NewSchema(out...)
	}
	a.kinds = append(a.kinds, tuple.KindInt64) // the count
	for j, spec := range aggs {
		k, op := aggOutputKind(spec), &a.ops[j]
		out = append(out, tuple.Column{Name: spec.Name, Kind: k})
		op.state = nk
		if spec.Kind != AggCount {
			op.state = len(a.kinds)
			a.kinds = append(a.kinds, k)
		}
		a.pick[nk+j] = op.state
		if spec.Arg == nil {
			continue
		}
		// A bare column is read in place: by MIN and MAX when it is of the
		// declared kind, by SUM and AVG when it is numeric, by COUNT always.
		c, ck, ok := bareColumn(in, spec.Arg)
		minmax := spec.Kind == AggMin || spec.Kind == AggMax
		switch {
		case ok && (!minmax || ck == k) && (spec.Kind == AggCount || ck != tuple.KindString):
			op.arg, op.kind = c, ck
		case minmax:
			op.arg, op.kind, op.evaluated = evaluate(spec.Arg, k, false), k, true
		default:
			op.arg, op.kind, op.evaluated = evaluate(spec.Arg, tuple.KindFloat64, true), tuple.KindFloat64, true
		}
	}
	a.schema = tuple.NewSchema(out...)
	return a
}

// bareColumn returns the input column e is, and its kind, when e is a bare
// column: one the fold can read in place.
func bareColumn(in *tuple.Schema, e expr.Expr) (int, tuple.Kind, bool) {
	c, ok := e.(expr.Col)
	if !ok || c.Idx < 0 || c.Idx >= in.Len() {
		return 0, 0, false
	}
	return c.Idx, in.Cols[c.Idx].Kind, true
}

// allKeys returns 0..n-1: every column of an n-column batch.
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

// Open implements Iterator: drains the child batch-at-a-time and folds it
// into the group table, then orders the groups.
func (a *HashAgg) Open() error {
	a.table.reset(a.kinds, len(a.groups))
	a.ev.reset(a.evKinds)
	if err := a.child.Open(); err != nil {
		a.child.Close()
		return err
	}
	defer a.child.Close()
	for {
		b, ok, err := a.child.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := a.fold(b); err != nil {
			return err
		}
	}
	t := &a.table
	// Global aggregation over zero rows still yields one row of zeros.
	if len(a.groups) == 0 && t.n == 0 {
		t.grow(1)
		t.n = 1
	}
	counts := t.cols[len(a.groups)].I
	for j, spec := range a.aggs {
		if sums := t.cols[a.ops[j].state].F; spec.Kind == AggAvg {
			for g, n := range counts[:t.n] {
				if n != 0 {
					sums[g] /= float64(n)
				}
			}
		}
	}
	a.order()
	return nil
}

// fold folds one input batch into the group table.
func (a *HashAgg) fold(in *tuple.Batch) error {
	kb := in
	if len(a.evs) > 0 {
		if err := a.evaluate(in); err != nil {
			return err
		}
		if a.keysEv {
			kb = tuple.ViewOf(a.keySchema, a.ev.cols[:len(a.groups)], in.Len())
		}
	}
	a.hashes = kb.HashColumns(a.keys, a.hashes)
	first := int32(a.table.n)
	gids, fresh := a.table.lookup(kb, a.keys, a.hashes)
	if kb != in {
		kb.Release() // the view's shell
	}
	cols := a.table.cols
	counts := cols[len(a.groups)].I
	for _, g := range gids {
		counts[g]++
	}
	for j, spec := range a.aggs {
		op := a.ops[j]
		if spec.Kind == AggCount || spec.Arg == nil {
			continue
		}
		var arg tuple.Vector
		if op.evaluated {
			arg = a.ev.cols[op.arg]
		} else {
			arg = in.Col(op.arg)
		}
		acc := &cols[op.state]
		switch {
		case spec.Kind != AggMin && spec.Kind != AggMax && op.kind == tuple.KindFloat64:
			sumInto(acc.F, arg.F, gids)
		case spec.Kind != AggMin && spec.Kind != AggMax:
			sumInto(acc.F, arg.I, gids)
		case op.kind == tuple.KindFloat64:
			minMaxInto(acc.F, arg.F, spec.Kind, gids, fresh, first)
		case op.kind == tuple.KindString:
			minMaxInto(acc.S, arg.S, spec.Kind, gids, fresh, first)
		default:
			minMaxInto(acc.I, arg.I, spec.Kind, gids, fresh, first)
		}
	}
	return nil
}

// sumInto adds argument cells arg, of rows whose groups are gids, to the
// groups' sums, in row order.
func sumInto[T int64 | float64](sums []float64, arg []T, gids []int32) {
	for i, g := range gids {
		sums[g] += float64(arg[i])
	}
}

// minMaxInto folds argument cells arg, of rows whose groups are gids, into
// the groups' MIN or MAX acc, which starts at the value of the row that
// added its group (fresh, the groups from first on).
func minMaxInto[T cmp.Ordered](acc, arg []T, kind AggKind, gids, fresh []int32, first int32) {
	for k, r := range fresh {
		acc[first+int32(k)] = arg[r]
	}
	for i, g := range gids {
		lo, hi := arg[i], acc[g]
		if kind == AggMax {
			lo, hi = hi, lo
		}
		if cmp.Less(lo, hi) {
			acc[g] = arg[i]
		}
	}
}

// evaluate fills column j of a.ev with the values of a.evs[j] over the
// rows of in: the seam where compiled column kernels would go.
func (a *HashAgg) evaluate(in *tuple.Batch) error {
	a.ev.n = 0
	a.ev.grow(in.Len())
	for i := 0; i < in.Len(); i++ {
		a.row = in.AppendRowTo(a.row[:0], i)
		for j, op := range a.evs {
			v, err := op.e.Eval(a.row)
			if err != nil {
				return err
			}
			col := &a.ev.cols[j]
			switch {
			case op.asFloat:
				col.F[i] = v.AsFloat()
			case v.K != op.kind:
				return fmt.Errorf("engine: aggregation operand %v produced %v, declared %v", op.e, v.K, op.kind)
			case v.K == tuple.KindFloat64:
				col.F[i] = v.F
			case v.K == tuple.KindString:
				col.S[i] = v.S
			default:
				col.I[i] = v.I
			}
		}
	}
	return nil
}

// order renders every group's order key into one buffer — per group
// value, its kind number, '|', its display form and a NUL — and sorts the
// groups by it into a.perm, ties in first-seen order.
func (a *HashAgg) order() {
	t, nk := &a.table, len(a.groups)
	a.perm, a.ends, a.idx = tuple.Resize(a.perm, t.n), tuple.Resize(a.ends, t.n), 0
	size := 0
	for c, k := range a.kinds[:nk] {
		size += int(t.cols[c].Size(k, t.n)) + 24*t.n
	}
	if cap(a.text) < size {
		a.text = make([]byte, 0, size)
	}
	buf := a.text[:0]
	for g := range a.perm {
		a.perm[g] = int32(g)
		for c, k := range a.kinds[:nk] {
			buf = strconv.AppendUint(buf, uint64(k), 10)
			buf = append(buf, '|')
			buf = t.cols[c].Value(k, g).AppendText(buf)
			buf = append(buf, 0)
		}
		a.ends[g] = int64(len(buf))
	}
	a.text = buf
	key := func(g int32) []byte {
		if g == 0 {
			return buf[:a.ends[0]]
		}
		return buf[a.ends[g-1]:a.ends[g]]
	}
	if nk > 0 {
		slices.SortFunc(a.perm, func(x, y int32) int {
			if c := bytes.Compare(key(x), key(y)); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
	}
}

// NextBatch implements Iterator.
func (a *HashAgg) NextBatch() (*tuple.Batch, bool, error) {
	if a.ostats != nil {
		return timedBatch(a.ostats, a.nextBatch)
	}
	return a.nextBatch()
}

func (a *HashAgg) nextBatch() (*tuple.Batch, bool, error) {
	return serveGather(&a.ob, a.schema, a.table.cols, a.pick, a.perm, &a.idx)
}

// Close implements Iterator, handing the group table, scratch and output
// batch back to the pool.
func (a *HashAgg) Close() error {
	a.table.release()
	a.ev.release()
	tuple.Release(a.hashes)
	tuple.Release(a.perm)
	tuple.Release(a.ends)
	a.hashes, a.perm, a.ends, a.idx = nil, nil, nil, 0
	return closeOutput(&a.ob, nil)
}
