package engine

import (
	"reflect"
	"strconv"
	"unsafe"

	"repro/internal/expr"
	"repro/internal/tuple"
)

// Shape is a compiled shaping stage: the operators a query applies to its
// join's output — filters, aggregation, projection, DISTINCT, ORDER BY and
// LIMIT, in the order they were added — with everything they derive from
// their input schemas computed once: output schemas, HashAgg's key, pick,
// kind and operand tables, Sort's key columns, the bound expressions. A
// planned query keeps its Shape, and every run shares it through Apply,
// which instantiates only the operators' per-run state. A Shape is built
// by NewShape and its adding methods, and is read-only from its first
// Apply on: concurrent runs read it without a lock.
type Shape struct {
	out *tuple.Schema
	// stages are prototypes of the operators, input first: their compiled
	// fields and no child or per-run state. cells[i] is how many row cells
	// stage i's row buffers take. run is a struct type of one field per
	// stage, the operator's type, then an array of every stage's row cells:
	// a run allocates its operators and their row buffers as one object of
	// exactly their size.
	stages []stage
	cells  []int
	run    reflect.Type
}

// stage is an operator a Shape instantiates: a copy of its prototype, given
// its input and the row cells its buffers take.
type stage interface {
	Iterator
	wire(child Iterator, cells tuple.Row)
}

func (f *Filter) wire(child Iterator, cells tuple.Row)  { f.child, f.rowBuf = child, cells[:0] }
func (a *HashAgg) wire(child Iterator, cells tuple.Row) { a.child, a.row = child, cells[:0] }
func (pr *Project) wire(child Iterator, cells tuple.Row) {
	in := len(cells) - len(pr.cols)
	pr.child, pr.rowBuf, pr.outBuf = child, cells[:in:in], cells[in:]
}
func (d *Distinct) wire(child Iterator, _ tuple.Row) { d.child = child }
func (s *Sort) wire(child Iterator, _ tuple.Row)     { s.child = child }
func (l *Limit) wire(child Iterator, _ tuple.Row)    { l.child = child }

// NewShape starts a shaping stage over rows of schema in; with no operator
// added, Apply returns its input.
func NewShape(in *tuple.Schema) *Shape { return &Shape{out: in} }

// Schema returns the output schema of the operators added so far.
func (sh *Shape) Schema() *tuple.Schema { return sh.out }

// add appends an operator's prototype, the row cells its buffers take and
// its output schema.
func (sh *Shape) add(proto stage, cells int, out *tuple.Schema) *Shape {
	sh.stages, sh.cells, sh.out = append(sh.stages, proto), append(sh.cells, cells), out
	fields := make([]reflect.StructField, len(sh.stages), len(sh.stages)+1)
	total := 0
	for i, st := range sh.stages {
		fields[i] = reflect.StructField{Name: "S" + strconv.Itoa(i), Type: reflect.TypeOf(st).Elem()}
		total += sh.cells[i]
	}
	if total > 0 {
		fields = append(fields, reflect.StructField{Name: "Rows", Type: reflect.ArrayOf(total, reflect.TypeFor[tuple.Value]())})
	}
	sh.run = reflect.StructOf(fields)
	return sh
}

// Filter adds a filter on pred, bound to the current output schema.
func (sh *Shape) Filter(pred expr.Expr) *Shape {
	return sh.add(&Filter{pred: pred}, sh.out.Len(), sh.out)
}

// Aggregate adds a HashAgg of groups and aggs (see NewHashAgg); only the
// operands it evaluates read input rows.
func (sh *Shape) Aggregate(groups []GroupCol, aggs []AggSpec) *Shape {
	a, cells := newAggShape(sh.out, groups, aggs), 0
	if len(a.evs) > 0 {
		cells = sh.out.Len()
	}
	return sh.add(&HashAgg{aggShape: a}, cells, a.schema)
}

// Project adds a projection onto cols (see NewProject).
func (sh *Shape) Project(cols []ProjectCol) *Shape {
	p := NewProject(nil, cols)
	return sh.add(p, sh.out.Len()+len(cols), p.schema)
}

// Distinct adds duplicate elimination on every column.
func (sh *Shape) Distinct() *Shape { return sh.add(newDistinct(nil, sh.out), 0, sh.out) }

// Sort adds an ORDER BY on keys (see NewSort).
func (sh *Shape) Sort(keys []SortKey) *Shape {
	return sh.add(&Sort{sortShape: newSortShape(sh.out, keys)}, 0, sh.out)
}

// Limit adds a cap of n rows.
func (sh *Shape) Limit(n int) *Shape { return sh.add(NewLimit(nil, n), 0, sh.out) }

// Apply instantiates the shaping stage over in, whose schema must be the
// one the Shape was built over: the run's operators and their row buffers,
// in one allocation, are copies of the prototypes and share their compiled
// fields. It is what a compiled query's QuerySpec.Shape holds.
func (sh *Shape) Apply(in Iterator) Iterator {
	if len(sh.stages) == 0 {
		return in
	}
	ops := reflect.New(sh.run).Elem()
	var cells tuple.Row
	if ops.NumField() > len(sh.stages) {
		rows := ops.Field(len(sh.stages))
		cells = unsafe.Slice((*tuple.Value)(rows.Addr().UnsafePointer()), rows.Len())
	}
	for i, proto := range sh.stages {
		op := ops.Field(i)
		op.Set(reflect.ValueOf(proto).Elem())
		st := op.Addr().Interface().(stage)
		n := sh.cells[i]
		st.wire(in, cells[:n:n])
		cells, in = cells[n:], st
	}
	return in
}
