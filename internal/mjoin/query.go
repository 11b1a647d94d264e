// Package mjoin implements Skipper's core contribution: a CSD-driven,
// cache-aware multi-way join (§4.1–§4.2). The traditional monolithic MJoin
// operator is split into a state manager and a stateless n-ary join: the
// state manager enumerates subplans (one per combination of segments
// across the query's relations), requests all needed objects upfront,
// executes subplans as out-of-order arrivals make them runnable, evicts
// under cache pressure with a progress-based policy, and reissues requests
// for evicted objects still needed by pending subplans.
package mjoin

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// Relation is one input of the multi-way join.
type Relation struct {
	// Table provides the schema and backing objects.
	Table *catalog.TableMeta
	// Filter is the local predicate applied as tuples arrive (nil keeps
	// every row). Filtering at arrival both shrinks the cached state and
	// enables subplan pruning for clustered selectivity (§5.2.4).
	Filter expr.Expr
	// Pruner, when non-nil (and Config.StatsPruning on), lets the state
	// manager drop segments the catalog statistics prove result-free
	// under Filter before any CSD request is issued: their subplans are
	// retired upfront, so the objects never appear in a request cycle.
	Pruner stats.Pruner
	// Cols is the relation's physical projection: the table columns, in
	// ascending order, that the query reads from this relation (empty
	// non-nil = none, the leg contributes bare row counts; nil = every
	// column). Against lazily decoded v2 segments only these column blocks
	// are decoded, and Filter is evaluated over them. The relation's leg
	// hands on fewer still: only the columns of Cols read above it — named
	// by Query.Out, by a later join's LeftCol or by the relation's own
	// RightCol. So a column only Filter reads is decoded, filtered on and
	// dropped, and nothing after the filter — MJoin's cache entries, hash
	// indexes and output chunks, the pull engine's scan batches, build
	// sides and join rows — holds a column nothing above it reads.
	//
	// Filter stays bound against Table.Schema and may only read columns of
	// Cols; JoinCond columns, Query.Out and whatever the caller's shaping
	// stage binds are resolved by name, so a reference to a column outside
	// Cols fails when the query is validated or the shape is bound, never
	// at run time.
	Cols []int
}

// width is how many columns the relation decodes: Cols, or the table's.
func (r *Relation) width() int {
	if r.Cols == nil {
		return r.Table.Schema.Len()
	}
	return len(r.Cols)
}

// col returns the table column behind the relation's p-th decoded one.
func (r *Relation) col(p int) int {
	if r.Cols == nil {
		return p
	}
	return r.Cols[p]
}

// JoinCond joins relation Rel (by index into Query.Relations) to the
// accumulated prefix of relations before it: LeftCol must resolve in the
// concatenated schema of relations[0..Rel-1], RightCol in relation Rel.
type JoinCond struct {
	// Rel indexes the relation this condition attaches (must be its
	// position in Query.Relations).
	Rel int
	// LeftCol names the key in the accumulated prefix schema; RightCol
	// names the key in relation Rel.
	LeftCol, RightCol string
}

// Query is a multi-way equi-join over R relations connected by R-1 join
// conditions (a join chain/tree flattened left-deep). Column names must be
// unique across relations (TPC-H style l_/o_ prefixes).
type Query struct {
	// ID tags the query in requests, traces and errors.
	ID string
	// Relations lists the join inputs; Relations[0] is the probe root.
	Relations []Relation
	// Joins holds the R-1 conditions, one per relation after the first.
	Joins []JoinCond
	// Out names the columns the caller's shaping stage reads, each one of
	// some relation's Cols; nil reads every leg column. The output schema
	// is the leg schemas concatenated and restricted to Out, and every join
	// stage of both engines carries only Out and the left keys of the joins
	// after it.
	Out []string
	// plan is what Validate compiled for the query at this address.
	plan *probePlan
}

// Validate checks structural soundness and returns the output schema: the
// relations' leg schemas, concatenated and restricted to Out. Every run
// reads the plan it keeps: validate before sharing, never change after.
func (q *Query) Validate() (*tuple.Schema, error) {
	pp, err := q.compiled()
	if err != nil {
		return nil, err
	}
	if q.plan != pp {
		q.plan = pp
	}
	return pp.out, nil
}

// compiled returns the plan Validate kept for q, or else a new one. In test
// binaries every reuse compiles the query again and panics unless the two
// plans agree: a validated Query changed in place would run a stale plan.
func (q *Query) compiled() (*probePlan, error) {
	pp := q.plan
	if pp == nil || pp.q != q {
		return buildProbePlan(q)
	}
	if testing.Testing() {
		if fresh, err := buildProbePlan(q); err != nil || !reflect.DeepEqual(fresh, pp) {
			panic(fmt.Sprintf("mjoin: query %s was changed after Validate compiled its plan; a validated Query is immutable", q.ID))
		}
	}
	return pp, nil
}

// Plan validates the query like Validate and returns what a pull plan is
// built from: the relations' legs, so its scans run the kernels validation
// built, and one compiled hash join per join, the (i-1)-th attaching
// relation i to the rows joined before it. Its key is the one Joins names
// on either side, and it carries the columns a later join or the output
// reads. Both are the kept plan's, which no run may change.
func (q *Query) Plan() ([]*engine.Leg, []*engine.JoinShape, error) {
	pp, err := q.compiled()
	if err != nil {
		return nil, nil, err
	}
	return pp.legs, pp.stages, nil
}

// OutputSchema returns the join output schema, panicking on an invalid
// query.
func (q *Query) OutputSchema() *tuple.Schema {
	s, err := q.Validate()
	if err != nil {
		panic(err)
	}
	return s
}

// Objects lists every object the query needs, relation by relation — the
// state manager's readObjectsFromCatalog step.
func (q *Query) Objects() []segment.ObjectID {
	var out []segment.ObjectID
	for _, r := range q.Relations {
		out = append(out, r.Table.Objects...)
	}
	return out
}

// Requested iterates over the segments a run of the query will actually
// request, relation by relation in plan order: every object of every
// relation minus — with data skipping on — the segments the relation's
// Pruner proves result-free, which neither engine ever asks a device for.
func (q *Query) Requested(prune bool) iter.Seq2[*Relation, segment.ObjectID] {
	return func(yield func(*Relation, segment.ObjectID) bool) {
		for ri := range q.Relations {
			rel := &q.Relations[ri]
			for si, id := range rel.Table.Objects {
				if prune && rel.Pruner != nil && rel.Pruner.CanSkip(si) {
					continue
				}
				if !yield(rel, id) {
					return
				}
			}
		}
	}
}

// NumSubplans returns the size of the subplan lattice — the product of the
// relations' segment counts — or an error when that overflows an int.
func (q *Query) NumSubplans() (int, error) {
	if slices.ContainsFunc(q.Relations, func(r Relation) bool { return len(r.Table.Objects) == 0 }) {
		return 0, nil
	}
	n := 1
	for _, r := range q.Relations {
		hi, lo := bits.Mul64(uint64(n), uint64(len(r.Table.Objects)))
		if hi != 0 || lo > math.MaxInt {
			return 0, fmt.Errorf("mjoin: query %s: its subplan lattice, the product of %d relations' segment counts, overflows an int", q.ID, len(q.Relations))
		}
		n = int(lo)
	}
	return n, nil
}
