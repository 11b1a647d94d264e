package workload_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/mjoin"
	"repro/internal/objstore"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/sql"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// The tests in this file pin what a physical projection may change: how
// wide everything between a segment's decode and the shaping stage is, and
// through that how many bytes a query allocates — never what it returns.

// The formats a store serves.
var colsFormats = []segment.Format{segment.FormatMem, segment.FormatV2}

// widen returns spec with Cols dropped from every relation, so that every
// leg, cache entry and join row is as wide as its table, and with a
// projection down to spec's own (narrow) join schema put in front of the
// unchanged shaping stage.
func widen(spec skipper.QuerySpec) skipper.QuerySpec {
	narrow := spec.Join.OutputSchema()
	q := *spec.Join
	q.Relations = append([]mjoin.Relation(nil), spec.Join.Relations...)
	for i := range q.Relations {
		q.Relations[i].Cols = nil
	}
	wide := q.OutputSchema()
	cols := make([]engine.ProjectCol, narrow.Len())
	for i, c := range narrow.Cols {
		cols[i] = engine.ProjectCol{Name: c.Name, Kind: c.Kind, E: expr.Bind(wide, c.Name)}
	}
	return skipper.QuerySpec{Name: spec.Name + "/wide", Join: &q, Shape: func(in engine.Iterator) engine.Iterator {
		return spec.Shape(engine.NewProject(in, cols))
	}}
}

// runSpec executes spec as the only query of one client of a cluster and
// returns its rows.
func runSpec(t *testing.T, ds *workload.Dataset, spec skipper.QuerySpec, mode skipper.Mode, cache int) []tuple.Row {
	t.Helper()
	client := &skipper.Client{
		Mode: mode, Catalog: ds.Catalog, Queries: []skipper.QuerySpec{spec},
		CacheObjects: cache, KeepResults: true,
	}
	res, err := (&skipper.Cluster{Clients: []*skipper.Client{client}, Store: ds.Store}).Run()
	if err != nil {
		t.Fatalf("%s %v cache=%d: %v", spec.Name, mode, cache, err)
	}
	return res.Clients[0].PerQuery[0].Results
}

// sameRows compares two results row for row, cell for cell.
func sameRows(a, b []tuple.Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return fmt.Errorf("row %d: %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

// TestColsChangeWidthNotResults: for every hand-built spec and the SQL probe
// queries, the rows returned with the declared Cols equal the rows returned
// with Cols = nil on every relation — on both engines, over materialized
// and v2 stores, with MJoin's cache at its minimum and holding everything.
func TestColsChangeWidthNotResults(t *testing.T) {
	type suite struct {
		gen   *workload.Dataset
		specs func(cat *catalog.Catalog) []skipper.QuerySpec
	}
	suites := []suite{
		{workload.TPCH(0, workload.TPCHConfig{SF: 8, RowsPerObject: 40, Seed: 3}), func(cat *catalog.Catalog) []skipper.QuerySpec {
			return []skipper.QuerySpec{
				workload.Q12(cat), workload.Q5(cat), workload.Q3(cat), workload.Q14(cat), workload.Q6SQL(cat),
				workload.QShipdateWindow(cat, "1994-01-01", "1994-12-31"), workload.Q5Selective(cat),
				workload.QProjectiveScan(cat), workload.QCountLineitem(cat),
			}
		}},
		{workload.SSB(0, workload.SSBConfig{SF: 6, RowsPerObject: 40, Seed: 3}), func(cat *catalog.Catalog) []skipper.QuerySpec {
			return []skipper.QuerySpec{workload.SSBQ1(cat), workload.SSBQ12(cat), workload.SSBQ13(cat)}
		}},
		{workload.MRBench(0, workload.MRBenchConfig{TotalGB: 8, RowsPerObject: 40, Seed: 3}), func(cat *catalog.Catalog) []skipper.QuerySpec {
			return []skipper.QuerySpec{workload.MRJoinTask(cat)}
		}},
		{workload.NREF(0, workload.NREFConfig{TotalGB: 13, RowsPerObject: 40, Seed: 3}), func(cat *catalog.Catalog) []skipper.QuerySpec {
			return []skipper.QuerySpec{workload.NREFJoin(cat)}
		}},
	}
	narrowed, nonEmpty := 0, 0
	for _, su := range suites {
		for _, f := range colsFormats {
			ds, err := objstore.ReencodeDataset(su.gen, f)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range su.specs(ds.Catalog) {
				wide := widen(spec)
				if wide.Join.OutputSchema().Len() > spec.Join.OutputSchema().Len() {
					narrowed++
				}
				minCache, all := len(spec.Join.Relations), len(spec.Join.Objects())
				for _, run := range []struct {
					mode  skipper.Mode
					cache int
				}{{skipper.ModeVanilla, 0}, {skipper.ModeSkipper, minCache}, {skipper.ModeSkipper, all}} {
					got := runSpec(t, ds, spec, run.mode, run.cache)
					want := runSpec(t, ds, wide, run.mode, run.cache)
					if err := sameRows(got, want); err != nil {
						t.Fatalf("%s %v %v cache=%d: declared Cols vs Cols=nil: %v", spec.Name, f, run.mode, run.cache, err)
					}
					if len(got) > 0 {
						nonEmpty++
					}
				}
			}
		}
	}
	if narrowed < len(colsFormats)*12 {
		t.Fatalf("only %d spec × format cells declare a projection; the comparison is nearly vacuous", narrowed)
	}
	if nonEmpty == 0 {
		t.Fatal("no run returned a row")
	}
}

// TestCountOnlyLegs: a leg that carries no column at all (COUNT(*) over one
// table) or nothing but its join key still counts its rows, on both engines
// over every store format.
func TestCountOnlyLegs(t *testing.T) {
	gen := workload.TPCH(0, workload.TPCHConfig{SF: 8, RowsPerObject: 40, Seed: 3})
	lines := gen.Catalog.MustTable("lineitem").RowCount
	for _, f := range colsFormats {
		ds, err := objstore.ReencodeDataset(gen, f)
		if err != nil {
			t.Fatal(err)
		}
		pl := &sql.Planner{Catalog: ds.Catalog}
		for query, widths := range map[string][]int{
			"SELECT COUNT(*) AS n FROM lineitem":                                       {0},
			"SELECT COUNT(*) AS n FROM lineitem, orders WHERE l_orderkey = o_orderkey": {1, 1},
		} {
			spec, err := pl.Plan(query)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for i, rel := range spec.Join.Relations {
				if rel.Cols == nil || len(rel.Cols) != widths[i] {
					t.Fatalf("%s: relation %d carries columns %v, want %d of them", query, i, rel.Cols, widths[i])
				}
				total += widths[i]
			}
			if w := spec.Join.OutputSchema().Len(); w != total {
				t.Fatalf("%s: join output is %d columns wide, want %d", query, w, total)
			}
			for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
				rows := runSpec(t, ds, spec, mode, len(spec.Join.Relations))
				if len(rows) != 1 || rows[0][0] != tuple.Int(lines) {
					t.Fatalf("%s %v %v: %v, want one row counting %d", query, f, mode, rows, lines)
				}
			}
		}
	}
}

// padLineitem returns gen with ten columns appended to lineitem that no
// query here reads, re-encoded as v2 like gen's own re-encoding.
func padLineitem(t *testing.T, gen *workload.Dataset) *workload.Dataset {
	t.Helper()
	cat := catalog.New(gen.Catalog.Tenant)
	store := make(map[segment.ObjectID]*segment.Segment)
	for _, name := range gen.Catalog.TableNames() {
		tm := gen.Catalog.MustTable(name)
		schema := tm.Schema
		if name == "lineitem" {
			cols := append([]tuple.Column(nil), schema.Cols...)
			for i := 0; i < 10; i++ {
				kind := tuple.KindInt64
				if i%2 == 1 {
					kind = tuple.KindString
				}
				cols = append(cols, tuple.Column{Name: fmt.Sprintf("l_pad%d", i), Kind: kind})
			}
			schema = tuple.NewSchema(cols...)
		}
		var segs []*segment.Segment
		for _, id := range tm.Objects {
			sg := *gen.Store[id]
			if name == "lineitem" {
				rows := make([]tuple.Row, len(sg.Rows))
				for r, row := range sg.Rows {
					rows[r] = append(tuple.Row(nil), row...)
					for i := 0; i < 10; i++ {
						if i%2 == 1 {
							rows[r] = append(rows[r], tuple.Str(fmt.Sprintf("pad-%d-%d", i, r%97)))
						} else {
							rows[r] = append(rows[r], tuple.Int(int64(r*i)))
						}
					}
				}
				sg.Rows = rows
			}
			segs = append(segs, &sg)
			store[id] = &sg
		}
		cat.MustAddTable(name, schema, segs)
	}
	enc, err := objstore.ReencodeDataset(&workload.Dataset{Catalog: cat, Store: store}, segment.FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestBytesFollowReferencedColumns: what a query allocates depends on the
// columns it reads, not on how wide its tables are. The same join+agg over
// the same data, once with ten unread columns appended to lineitem, must
// allocate within a tenth of the same bytes, on the pull plan and through
// MJoin.
func TestBytesFollowReferencedColumns(t *testing.T) {
	const joinAgg = `SELECT l_shipmode, COUNT(*) AS lines, SUM(l_quantity) AS qty
		FROM lineitem, orders WHERE l_orderkey = o_orderkey
		GROUP BY l_shipmode ORDER BY l_shipmode`
	gen := workload.TPCH(0, workload.TPCHConfig{SF: 8, RowsPerObject: 1000, Seed: 3})
	base, err := objstore.ReencodeDataset(gen, segment.FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	padded := padLineitem(t, gen)
	if w := padded.Catalog.MustTable("lineitem").Schema.Len(); w != base.Catalog.MustTable("lineitem").Schema.Len()+10 {
		t.Fatalf("padded lineitem has %d columns", w)
	}
	// allocated runs fn a few times and returns the bytes one run allocates.
	allocated := func(fn func()) float64 {
		const runs = 5
		fn() // warm up lazily built state
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	engines := map[string]func(ds *workload.Dataset, spec skipper.QuerySpec) engine.Iterator{
		"pull plan": func(ds *workload.Dataset, spec skipper.QuerySpec) engine.Iterator {
			it, err := skipper.BuildPullPlan(engine.NewTestCtx(ds.Store), spec.Join)
			if err != nil {
				t.Fatal(err)
			}
			return it
		},
		"mjoin.RunBatches": func(ds *workload.Dataset, spec skipper.QuerySpec) engine.Iterator {
			join, err := mjoin.NewStream(spec.Join, mjoin.DefaultConfig(len(spec.Join.Objects())), &orderedSource{store: ds.Store})
			if err != nil {
				t.Fatal(err)
			}
			return join
		},
	}
	for name, join := range engines {
		var results [2][]tuple.Row
		var bytes [2]float64
		for i, ds := range []*workload.Dataset{base, padded} {
			spec, err := (&sql.Planner{Catalog: ds.Catalog}).Plan(joinAgg)
			if err != nil {
				t.Fatal(err)
			}
			bytes[i] = allocated(func() {
				rows, err := engine.Collect(spec.Shape(join(ds, spec)))
				if err != nil {
					t.Fatal(err)
				}
				results[i] = rows
			})
		}
		if err := sameRows(results[0], results[1]); err != nil || len(results[0]) == 0 {
			t.Fatalf("%s: padding changed the result (%d rows): %v", name, len(results[0]), err)
		}
		t.Logf("%s: %.0f bytes per run, %.0f with ten more lineitem columns (x%.3f)", name, bytes[0], bytes[1], bytes[1]/bytes[0])
		if bytes[1] > 1.10*bytes[0] {
			t.Errorf("%s: allocated bytes grew from %.0f to %.0f (x%.2f) with ten unread columns; want within x1.10",
				name, bytes[0], bytes[1], bytes[1]/bytes[0])
		}
	}
}

// orderedSource is an in-memory mjoin.Source delivering every requested
// object at once, in request order.
type orderedSource struct {
	store map[segment.ObjectID]*segment.Segment
	queue []*segment.Segment
}

func (s *orderedSource) Request(objs []segment.ObjectID) {
	for _, id := range objs {
		s.queue = append(s.queue, s.store[id])
	}
}

func (s *orderedSource) NextArrival() (*segment.Segment, error) {
	sg := s.queue[0]
	s.queue = s.queue[1:]
	return sg, nil
}

// cellBudgets is what the join stage of Q5 may allocate per cell it reads
// — per (row × leg column) of the segments it scans — on each engine: the
// pull plan decodes a cell, copies it into scan batches, keeps it in build
// sides and gathers it into join outputs; MJoin decodes it into the vectors
// its cache entry owns and gathers the survivors once. Typed vectors spend
// 8 bytes on a numeric cell and 16 on a string header at each of those
// steps; the 40-byte dynamically typed cell they replaced came to 110 and
// 53 bytes per cell here and cannot come in under either budget. The pull
// plan measures 37.1: its build sides are kept at one copy in geometric
// chunks, where a build batch that doubled came to 41.2.
var cellBudgets = map[string]float64{"pull plan": 39, "mjoin.RunBatches": 24}

// TestCellBytesFollowKinds: the bytes Q5's join stage allocates per cell
// stay under cellBudgets on the pull plan and through mjoin.RunBatches, over
// a fixed v2-encoded dataset.
func TestCellBytesFollowKinds(t *testing.T) {
	gen := workload.TPCH(0, workload.TPCHConfig{SF: 8, RowsPerObject: 1000, Seed: 3})
	ds, err := objstore.ReencodeDataset(gen, segment.FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	join := workload.Q5(ds.Catalog).Join
	cells := 0
	for _, rel := range join.Relations {
		for _, id := range rel.Table.Objects {
			cells += ds.Store[id].NumRows() * len(rel.Cols)
		}
	}
	engines := map[string]func() int{
		"pull plan": func() (rows int) {
			it, err := skipper.BuildPullPlan(engine.NewTestCtx(ds.Store), join)
			if err != nil {
				t.Fatal(err)
			}
			if err := it.Open(); err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			for {
				b, ok, err := it.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					return rows
				}
				rows += b.Len()
			}
		},
		"mjoin.RunBatches": func() int {
			st, err := mjoin.NewStream(join, mjoin.DefaultConfig(len(join.Objects())), &orderedSource{store: ds.Store})
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, ok, err := st.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					return st.Stats().ResultRows
				}
			}
		},
	}
	for name, run := range engines {
		const runs = 3
		if run() == 0 { // also warms up lazily built state
			t.Fatalf("%s: Q5's join is empty on this dataset; the budget would be vacuous", name)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		perCell := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(cells)
		t.Logf("%s: %.1f bytes per cell over %d cells", name, perCell, cells)
		if perCell > cellBudgets[name] {
			t.Errorf("%s: %.1f bytes allocated per cell read, budget %.0f", name, perCell, cellBudgets[name])
		}
	}
}
