package experiments

import (
	"fmt"

	"repro/internal/lattice"
	"repro/internal/skipper"
	"repro/internal/workload"
)

// This file is the evaluation of the statistics subsystem (zone maps +
// Bloom filters): a selectivity sweep showing how predicate width
// translates into skipped CSD requests, and the pruning report behind
// `skipperbench -report prune` — every data point is produced twice, with
// data skipping on and off. (That skipping never changes a result is the
// lattice harness's pruning axis; TestReportQueriesVerify runs it over
// these reports' queries.)

// selectivityWindows are the swept l_shipdate ranges, widest first.
var selectivityWindows = []struct {
	name   string
	lo, hi string
}{
	{"7 years", "1992-01-01", "1998-12-31"},
	{"1 year", "1994-01-01", "1994-12-31"},
	{"3 months", "1994-01-01", "1994-03-31"},
	{"1 month", "1994-01-01", "1994-01-31"},
	{"1 week", "1994-01-01", "1994-01-07"},
}

// clusteredDataset builds the date-clustered TPC-H tenant the pruning
// experiments run on (clustering is what gives zone maps their power;
// see workload.TPCHConfig.ClusteredDates).
func (p Params) clusteredDataset() *workload.Dataset {
	return workload.TPCH(0, workload.TPCHConfig{
		SF: p.SF, RowsPerObject: p.RowsPerObject, Seed: p.Seed, ClusteredDates: true,
	})
}

// pruneGrid is the grid of the data-skipping sweeps: one-client runs of
// one query per row with data skipping on and off (the two series),
// checked to return as many rows; label names a row, from its keys, in
// that check's error.
func (p Params) pruneGrid(id, title string, keys []string, label func(keys []string) string) *Grid {
	return &Grid{
		ID: id, Title: title, Keys: keys,
		Base:   p.cell(skipper.ModeSkipper),
		Series: []Change{nil, func(c *lattice.Cell, _ *lattice.Workload) { c.NoStatsPruning = true }},
		Columns: []Column{
			{"skipped", 0, skipped, count},
			{"GETs (skip on)", 0, issued, count},
			{"GETs (skip off)", 1, issued, count},
			{"avoided", 0, avoided, percent},
			{"exec on (s)", 0, elapsed, seconds},
			{"exec off (s)", 1, elapsed, seconds},
			{"rows on", 0, rows, nil},
			{"rows off", 1, rows, nil},
		},
		Check: func(m *Matrix) error {
			for r := 0; r < m.Len(); r++ {
				if on, off := m.At(r, "rows on"), m.At(r, "rows off"); on != off {
					return fmt.Errorf("%s: pruned run returned %d rows, unpruned %d", label(m.Keys(r)), int64(on), int64(off))
				}
			}
			return nil
		},
	}
}

// namedQuery is a query under the name a report row gives it.
type namedQuery struct {
	name string
	spec skipper.QuerySpec
}

// oneQuery is the workload of one client running spec over ds.
func oneQuery(ds *workload.Dataset, spec skipper.QuerySpec) func() (lattice.Workload, error) {
	return fixedWorkload(lattice.Workload{
		Store:   ds.Store,
		Tenants: []lattice.Tenant{{Catalog: ds.Catalog, Queries: []skipper.QuerySpec{spec}}},
	})
}

// selectivity sweeps the predicate window of a Q12-style join over the
// date-clustered dataset on the skipper engine, with data skipping on and
// off.
func (p Params) selectivity() (*Grid, error) {
	ds, err := encoded(p.clusteredDataset())
	if err != nil {
		return nil, err
	}
	g := p.pruneGrid("Selectivity sweep", "CSD GETs vs predicate width, data skipping on/off (Q12-style join, date-clustered, skipper engine)",
		[]string{"l_shipdate window", "input objects"},
		func(keys []string) string { return fmt.Sprintf("window %q", keys[0]) })
	g.Notes = []string{"results are held byte-identical with data skipping on and off at every point, both engines, by the lattice harness (go test ./internal/experiments -run TestReportQueriesVerify)"}
	for _, w := range selectivityWindows {
		spec := workload.QShipdateWindow(ds.Catalog, w.lo, w.hi)
		g.Rows = append(g.Rows, Row{Keys: []string{w.name, fmt.Sprint(len(spec.Join.Objects()))}, Workload: oneQuery(ds, spec)})
	}
	return g, nil
}

// pruneReport runs the join+agg and Q5-style selective workloads on both
// engines with data skipping on and off, then the paper's Q12 and Q5 over
// the figures' own dataset, whose dates are not clustered: the figures run
// them with data skipping off, and these rows show what turning it on
// would change.
func (p Params) pruneReport() (*Grid, error) {
	ds, err := encoded(p.clusteredDataset())
	if err != nil {
		return nil, err
	}
	figs, err := encoded(workload.TPCH(0, p.tpchConfig(p.SF)))
	if err != nil {
		return nil, err
	}
	g := p.pruneGrid("Pruning report", "Segments fetched vs skipped with data skipping on/off (date-clustered dataset, then the figures' unclustered one)",
		[]string{"query", "engine", "input objects"},
		func(keys []string) string { return keys[0] + " " + keys[1] })
	g.Notes = []string{"results are held byte-identical with data skipping on and off, both engines, by the lattice harness (go test ./internal/experiments -run TestReportQueriesVerify)"}
	for _, q := range []struct {
		namedQuery
		ds *workload.Dataset
	}{
		{namedQuery{"join+agg (shipdate 1994-01)", workload.QShipdateWindow(ds.Catalog, "1994-01-01", "1994-01-31")}, ds},
		{namedQuery{"Q5 selective", workload.Q5Selective(ds.Catalog)}, ds},
		{namedQuery{"Q12 (unclustered)", workload.Q12(figs.Catalog)}, figs},
		{namedQuery{"Q5 (unclustered)", workload.Q5(figs.Catalog)}, figs},
	} {
		for _, mode := range engines {
			keys := []string{q.name, mode.String(), fmt.Sprint(len(q.spec.Join.Objects()))}
			g.Rows = append(g.Rows, Row{Keys: keys, Change: useEngine(mode), Workload: oneQuery(q.ds, q.spec)})
		}
	}
	return g, nil
}
