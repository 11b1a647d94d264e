package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/lattice"
	"repro/internal/mjoin"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// The format differential suite proves the columnar segment format end to
// end: for every probe query, the generated dataset's in-memory rows and
// its columnar objects with projection pushdown (v2) must produce
// byte-identical, identically ordered results — across both engines and
// data skipping on/off. Queries whose aggregates are
// integer-only compare across engines too;
// float-aggregating queries compare within each engine (the engines add
// floats in different orders, which may differ in the last ulps — an
// engine property, not a format one).

var formatDiffQueries = []struct {
	name        string
	spec        func(ds *workload.Dataset) skipper.QuerySpec
	crossEngine bool
}{
	{"q12", func(ds *workload.Dataset) skipper.QuerySpec { return workload.Q12(ds.Catalog) }, true},
	{"shipdate-window", func(ds *workload.Dataset) skipper.QuerySpec {
		return workload.QShipdateWindow(ds.Catalog, "1994-01-01", "1994-03-31")
	}, true},
	{"q5-selective", func(ds *workload.Dataset) skipper.QuerySpec { return workload.Q5Selective(ds.Catalog) }, true},
	{"projective-scan", func(ds *workload.Dataset) skipper.QuerySpec { return workload.QProjectiveScan(ds.Catalog) }, true},
	{"count-star", func(ds *workload.Dataset) skipper.QuerySpec { return workload.QCountLineitem(ds.Catalog) }, true},
	{"q3-float", func(ds *workload.Dataset) skipper.QuerySpec { return workload.Q3(ds.Catalog) }, false},
	{"q14-float", func(ds *workload.Dataset) skipper.QuerySpec { return workload.Q14(ds.Catalog) }, false},
}

// evalFormat runs one (mode, prune) combination locally over the given
// (possibly lazily decoded) store.
func evalFormat(ds *workload.Dataset, spec skipper.QuerySpec, mode skipper.Mode, prune bool) ([]tuple.Row, error) {
	if mode == skipper.ModeVanilla {
		it, err := skipper.BuildPullPlanPruned(engine.NewTestCtx(ds.Store), spec.Join, prune)
		if err != nil {
			return nil, err
		}
		if spec.Shape != nil {
			it = spec.Shape(it)
		}
		return engine.Collect(it)
	}
	cfg := mjoin.DefaultConfig(len(spec.Join.Objects()))
	cfg.StatsPruning = prune
	res, err := mjoin.Run(spec.Join, cfg, &scrambledSource{store: ds.Store})
	if err != nil {
		return nil, err
	}
	if spec.Shape == nil {
		return res.Rows, nil
	}
	return engine.Collect(spec.Shape(engine.NewValues(res.Schema, res.Rows)))
}

// store is one side of the format differentials.
type store struct {
	name string
	ds   *workload.Dataset
}

// stores returns the two sides: the generated dataset's in-memory rows,
// the reference, and the v2 objects it is served as.
func stores(t *testing.T) []store {
	t.Helper()
	base := Quick().clusteredDataset()
	v2, err := encoded(base)
	if err != nil {
		t.Fatalf("encode v2: %v", err)
	}
	return []store{{"generated", base}, {"v2", v2}}
}

func TestFormatDifferential(t *testing.T) {
	sides := stores(t)
	for _, q := range formatDiffQueries {
		q := q
		t.Run(q.name, func(t *testing.T) {
			want := map[skipper.Mode][]tuple.Row{}
			for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
				for _, side := range sides {
					ds := side.ds
					spec := q.spec(ds)
					for _, prune := range []bool{true, false} {
						label := fmt.Sprintf("%s/%s/prune=%v", side.name, mode, prune)
						rows, err := evalFormat(ds, spec, mode, prune)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						key := mode
						if q.crossEngine {
							key = skipper.ModeVanilla // one bucket for all runs
						}
						if want[key] == nil {
							want[key] = rows
							continue
						}
						if err := lattice.EqualRows(rows, want[key]); err != nil {
							t.Fatalf("%s diverges: %v", label, err)
						}
					}
				}
			}
		})
	}
}

// TestFormatDifferentialScrambledArrivals drives the MJoin engine with
// deterministic shuffled deliveries over the generated rows and the v2
// objects: out-of-order arrivals are the regime the state manager exists
// for, and the shaped results must still be identical on both sides.
func TestFormatDifferentialScrambledArrivals(t *testing.T) {
	var want []tuple.Row
	for _, side := range stores(t) {
		ds := side.ds
		spec := workload.QShipdateWindow(ds.Catalog, "1994-01-01", "1994-06-30")
		for seed := int64(1); seed <= 3; seed++ {
			cfg := mjoin.DefaultConfig(len(spec.Join.Objects()))
			res, err := mjoin.Run(spec.Join, cfg, &scrambledSource{store: ds.Store, rng: rand.New(rand.NewSource(seed))})
			if err != nil {
				t.Fatalf("%s seed %d: %v", side.name, seed, err)
			}
			rows, err := engine.Collect(spec.Shape(engine.NewValues(res.Schema, res.Rows)))
			if err != nil {
				t.Fatalf("%s seed %d: %v", side.name, seed, err)
			}
			if want == nil {
				want = rows
				continue
			}
			if err := lattice.EqualRows(rows, want); err != nil {
				t.Fatalf("%s seed %d diverges: %v", side.name, seed, err)
			}
		}
	}
}

// scrambledSource delivers requested objects in a deterministic shuffled
// order (in request order without an rng).
type scrambledSource struct {
	store map[segment.ObjectID]*segment.Segment
	rng   *rand.Rand
	queue []*segment.Segment
}

func (s *scrambledSource) Request(objs []segment.ObjectID) {
	order := make([]segment.ObjectID, len(objs))
	copy(order, objs)
	if s.rng != nil {
		s.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	for _, id := range order {
		s.queue = append(s.queue, s.store[id])
	}
}

func (s *scrambledSource) NextArrival() (*segment.Segment, error) {
	sg := s.queue[0]
	s.queue = s.queue[1:]
	return sg, nil
}

// TestFormatPreservesCatalogStats asserts the v2 path's directory-derived
// statistics are exactly what row-walking the generated dataset produces:
// same zone maps, same pruning decisions.
func TestFormatPreservesCatalogStats(t *testing.T) {
	sides := stores(t)
	base, v2 := sides[0].ds, sides[1].ds
	for _, name := range base.Catalog.TableNames() {
		bt, vt := base.Catalog.MustTable(name), v2.Catalog.MustTable(name)
		if bt.RowCount != vt.RowCount {
			t.Fatalf("%s: row count %d vs %d", name, bt.RowCount, vt.RowCount)
		}
		for si := range bt.Stats.Segments {
			bs, vs := bt.Stats.Segments[si], vt.Stats.Segments[si]
			if bs.Rows != vs.Rows {
				t.Fatalf("%s[%d]: rows %d vs %d", name, si, bs.Rows, vs.Rows)
			}
			for ci := range bs.Cols {
				b, v := bs.Cols[ci], vs.Cols[ci]
				if b.HasRange != v.HasRange || b.Nulls != v.Nulls {
					t.Fatalf("%s[%d] col %d: range/nulls diverge", name, si, ci)
				}
				if b.HasRange && (!tuple.Equal(b.Min, v.Min) || !tuple.Equal(b.Max, v.Max)) {
					t.Fatalf("%s[%d] col %d: zone map [%v,%v] vs [%v,%v]", name, si, ci, b.Min, b.Max, v.Min, v.Max)
				}
				if (b.Bloom == nil) != (v.Bloom == nil) {
					t.Fatalf("%s[%d] col %d: bloom presence diverges", name, si, ci)
				}
			}
		}
	}
}

// TestReportQueriesVerify holds the queries of the pruning, selectivity
// and projection reports, the pruning report's Q12 and Q5 over the figures'
// dataset included, to the lattice harness — v2 objects against
// workload.Evaluate over the generated rows — on both engines and data
// skipping on/off: the assertion those reports used to make on the side
// while measuring.
func TestReportQueriesVerify(t *testing.T) {
	p := Quick()
	var cells []lattice.Cell
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		for _, noPrune := range []bool{false, true} {
			cell := p.cell(mode)
			cell.NoStatsPruning = noPrune
			cells = append(cells, cell)
		}
	}
	queries := func(cat *catalog.Catalog) []skipper.QuerySpec {
		specs := []skipper.QuerySpec{workload.Q5Selective(cat), workload.QProjectiveScan(cat), workload.QCountLineitem(cat)}
		for _, w := range selectivityWindows {
			specs = append(specs, workload.QShipdateWindow(cat, w.lo, w.hi))
		}
		return specs
	}
	if err := lattice.Verify(p.clusteredDataset(), queries, cells); err != nil {
		t.Fatal(err)
	}
	// Over the figures' dataset, denser: at Quick's six rows per object
	// Q12 and Q5 return no row, and the differential would be vacuous.
	paper := func(cat *catalog.Catalog) []skipper.QuerySpec {
		return []skipper.QuerySpec{workload.Q12(cat), workload.Q5(cat)}
	}
	dense := p.tpchConfig(p.SF)
	dense.RowsPerObject = 60
	if err := lattice.Verify(workload.TPCH(0, dense), paper, cells); err != nil {
		t.Fatal(err)
	}
}

// TestProjectionReportQuick exercises the `skipperbench -report proj` path
// at quick scale and its headline claim, per query: the all-columns point
// skips nothing, the projected point decodes strictly fewer bytes on the
// projective probes and none on count(*), and both join the same rows.
func TestProjectionReportQuick(t *testing.T) {
	p := Quick()
	pts, err := p.ProjectionReportData()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 || len(pts)%2 != 0 {
		t.Fatalf("got %d points", len(pts))
	}
	for i := 0; i+1 < len(pts); i += 2 {
		all, proj := pts[i], pts[i+1]
		if all.Query != proj.Query {
			t.Fatalf("unexpected pairing: %+v / %+v", all, proj)
		}
		if all.BytesSkipped != 0 {
			t.Errorf("%s: all-columns point skipped %d bytes", all.Query, all.BytesSkipped)
		}
		if proj.BytesDecoded >= all.BytesDecoded {
			t.Errorf("%s: projected decoded %d bytes, all columns %d — no reduction", proj.Query, proj.BytesDecoded, all.BytesDecoded)
		}
		if proj.Query == "count(*) lineitem" && proj.BytesDecoded != 0 {
			t.Errorf("%s: projected point decoded %d bytes, want 0", proj.Query, proj.BytesDecoded)
		}
		if all.Rows != proj.Rows {
			t.Errorf("%s: join cardinality %d vs %d", all.Query, all.Rows, proj.Rows)
		}
	}
}
