// Package workload generates the four benchmark datasets of §5.1 — a
// TPC-H-like schema (SF-50/SF-100), the Star Schema Benchmark, the Pavlo
// analytical benchmark ("MRBench") and an NREF-like protein database —
// plus the query specs run against them (Q12, Q5, SSB Q1, JoinTask, and
// the NREF 4-table join).
//
// Object counts per relation track the paper's setup: with 1 GB segments,
// TPC-H SF-50 yields 57 objects for Q12's lineitem+orders and ≈63 for
// Q5's six relations; SF-100 yields 140 objects total of which Q5 reads
// 124. Tuple counts are scaled down (tuples carry the join/filter
// semantics; object counts carry the timing), with a configurable
// rows-per-object knob.
package workload

import (
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/segment"
	"repro/internal/tuple"
)

// Dataset is one tenant's generated database: catalog plus backing store.
type Dataset struct {
	Catalog *catalog.Catalog
	Store   map[segment.ObjectID]*segment.Segment
}

// MergeInto copies the dataset's objects into a shared store.
func (d *Dataset) MergeInto(store map[segment.ObjectID]*segment.Segment) {
	for id, sg := range d.Store {
		store[id] = sg
	}
}

// builder accumulates relations for one tenant.
type builder struct {
	tenant  int
	rng     *rand.Rand
	catalog *catalog.Catalog
	store   map[segment.ObjectID]*segment.Segment
}

func newBuilder(tenant int, seed int64) *builder {
	return &builder{
		tenant:  tenant,
		rng:     rand.New(rand.NewSource(seed ^ int64(tenant)*0x9E3779B97F4A7C)),
		catalog: catalog.New(tenant),
		store:   make(map[segment.ObjectID]*segment.Segment),
	}
}

// addTable splits rows into nSegments equal segments of 1 GB nominal size
// and registers the relation.
func (b *builder) addTable(name string, schema *tuple.Schema, rows []tuple.Row, nSegments int) {
	if nSegments < 1 {
		nSegments = 1
	}
	perSeg := (len(rows) + nSegments - 1) / nSegments
	if perSeg == 0 {
		perSeg = 1
	}
	segs := segment.Split(b.tenant, name, rows, perSeg, 1e9)
	// Pad with empty segments if integer division produced fewer than
	// requested (possible when rows < nSegments).
	for len(segs) < nSegments {
		segs = append(segs, &segment.Segment{
			ID:           segment.ObjectID{Tenant: b.tenant, Table: name, Index: len(segs)},
			NominalBytes: 1e9,
		})
	}
	for _, sg := range segs {
		b.store[sg.ID] = sg
	}
	b.catalog.MustAddTable(name, schema, segs)
}

func (b *builder) dataset() *Dataset {
	return &Dataset{Catalog: b.catalog, Store: b.store}
}

// dateBetween picks a uniform day count in [lo, hi].
func (b *builder) dateBetween(lo, hi tuple.Value) int64 {
	l, h := lo.AsInt(), hi.AsInt()
	return l + b.rng.Int63n(h-l+1)
}

// rowArena carves n empty rows of capacity w out of one cell array; append's
// arguments run in order, so filling a row draws as a row literal did.
func rowArena(n, w int) []tuple.Row {
	cells := make([]tuple.Value, n*w)
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = cells[i*w : i*w : (i+1)*w]
	}
	return rows
}

func col(name string, k tuple.Kind) tuple.Column { return tuple.Column{Name: name, Kind: k} }

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }
