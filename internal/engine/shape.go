package engine

import (
	"reflect"
	"strconv"

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
	// fields and no child or per-run state. run is a struct type of one
	// field per stage, the operator's type: a run allocates its operators
	// as one object of exactly their size.
	stages []stage
	run    reflect.Type
}

// stage is an operator a Shape instantiates: a copy of its prototype, given
// its input.
type stage interface {
	Iterator
	wire(child Iterator)
}

func (f *Filter) wire(child Iterator)   { f.child = child }
func (a *HashAgg) wire(child Iterator)  { a.child = child }
func (pr *Project) wire(child Iterator) { pr.child = child }
func (d *Distinct) wire(child Iterator) { d.child = child }
func (s *Sort) wire(child Iterator)     { s.child = child }
func (l *Limit) wire(child Iterator)    { l.child = child }

// NewShape starts a shaping stage over rows of schema in; with no operator
// added, Apply returns its input.
func NewShape(in *tuple.Schema) *Shape { return &Shape{out: in} }

// Schema returns the output schema of the operators added so far.
func (sh *Shape) Schema() *tuple.Schema { return sh.out }

// add appends an operator's prototype and its output schema.
func (sh *Shape) add(proto stage, out *tuple.Schema) *Shape {
	sh.stages, sh.out = append(sh.stages, proto), out
	fields := make([]reflect.StructField, len(sh.stages))
	for i, st := range sh.stages {
		fields[i] = reflect.StructField{Name: "S" + strconv.Itoa(i), Type: reflect.TypeOf(st).Elem()}
	}
	sh.run = reflect.StructOf(fields)
	return sh
}

// Filter adds a filter on pred, bound to the current output schema.
func (sh *Shape) Filter(pred expr.Expr) *Shape { return sh.add(&Filter{pred: pred}, sh.out) }

// Aggregate adds a HashAgg of groups and aggs (see NewHashAgg).
func (sh *Shape) Aggregate(groups []GroupCol, aggs []AggSpec) *Shape {
	a := newAggShape(sh.out, groups, aggs)
	return sh.add(&HashAgg{aggShape: a}, a.schema)
}

// Project adds a projection onto cols (see NewProject).
func (sh *Shape) Project(cols []ProjectCol) *Shape {
	p := NewProject(nil, cols)
	return sh.add(p, p.schema)
}

// Distinct adds duplicate elimination on every column.
func (sh *Shape) Distinct() *Shape { return sh.add(newDistinct(nil, sh.out), sh.out) }

// Sort adds an ORDER BY on keys (see NewSort).
func (sh *Shape) Sort(keys []SortKey) *Shape {
	return sh.add(&Sort{sortShape: newSortShape(sh.out, keys)}, sh.out)
}

// Limit adds a cap of n rows.
func (sh *Shape) Limit(n int) *Shape { return sh.add(NewLimit(nil, n), sh.out) }

// Apply instantiates the shaping stage over in, whose schema must be the
// one the Shape was built over: the run's operators, in one allocation, are
// copies of the prototypes and share their compiled fields. It is what a
// compiled query's QuerySpec.Shape holds.
func (sh *Shape) Apply(in Iterator) Iterator {
	if len(sh.stages) == 0 {
		return in
	}
	ops := reflect.New(sh.run).Elem()
	for i, proto := range sh.stages {
		op := ops.Field(i)
		op.Set(reflect.ValueOf(proto).Elem())
		st := op.Addr().Interface().(stage)
		st.wire(in)
		in = st
	}
	return in
}
