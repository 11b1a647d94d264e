package experiments

import (
	"fmt"
	"time"

	"repro/internal/lattice"
	"repro/internal/metrics"
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

// SelectivityPoint is one predicate width of the data-skipping sweep.
type SelectivityPoint struct {
	// Window names the l_shipdate range.
	Window string
	// Objects is the query's input footprint in segments.
	Objects int
	// Skipped is how many segment requests data skipping avoided.
	Skipped int
	// GetsPruned / GetsUnpruned count the GETs the skipper client issued
	// with data skipping on / off (including MJoin reissues).
	GetsPruned, GetsUnpruned int
	// TimePruned / TimeUnpruned are the client's virtual execution
	// times.
	TimePruned, TimeUnpruned time.Duration
}

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

// runPruneToggle executes the spec on a single client of the given mode
// with data skipping set per prune, returning the client stats.
func (p Params) runPruneToggle(ds *workload.Dataset, spec skipper.QuerySpec, mode skipper.Mode, prune bool) (*skipper.ClientStats, error) {
	cell := p.cell(mode)
	cell.NoPrune = !prune
	res, err := cell.Run(lattice.Workload{
		Store:   ds.Store,
		Tenants: []lattice.Tenant{{Catalog: ds.Catalog, Queries: []skipper.QuerySpec{spec}}},
	})
	if err != nil {
		return nil, err
	}
	return res.Clients[0], nil
}

// SelectivitySweepData sweeps the predicate window of a Q12-style join
// over the date-clustered dataset on the skipper engine, with data
// skipping on and off.
func (p Params) SelectivitySweepData() ([]SelectivityPoint, error) {
	ds, err := p.encoded(p.clusteredDataset())
	if err != nil {
		return nil, err
	}
	var out []SelectivityPoint
	for _, w := range selectivityWindows {
		spec := workload.QShipdateWindow(ds.Catalog, w.lo, w.hi)
		on, err := p.runPruneToggle(ds, spec, skipper.ModeSkipper, true)
		if err != nil {
			return nil, fmt.Errorf("window %q pruned: %w", w.name, err)
		}
		off, err := p.runPruneToggle(ds, spec, skipper.ModeSkipper, false)
		if err != nil {
			return nil, fmt.Errorf("window %q unpruned: %w", w.name, err)
		}
		if on.Rows != off.Rows {
			return nil, fmt.Errorf("window %q: pruned run returned %d rows, unpruned %d", w.name, on.Rows, off.Rows)
		}
		out = append(out, SelectivityPoint{
			Window:       w.name,
			Objects:      len(spec.Join.Objects()),
			Skipped:      on.SegmentsSkipped,
			GetsPruned:   on.GetsIssued,
			GetsUnpruned: off.GetsIssued,
			TimePruned:   on.Elapsed(),
			TimeUnpruned: off.Elapsed(),
		})
	}
	return out, nil
}

// FigureSelectivity renders the selectivity sweep.
func (p Params) FigureSelectivity() (*Figure, error) {
	pts, err := p.SelectivitySweepData()
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:      "Selectivity sweep",
		Title:   "CSD GETs vs predicate width, data skipping on/off (Q12-style join, date-clustered, skipper engine)",
		Columns: []string{"l_shipdate window", "input objects", "skipped", "GETs (skip on)", "GETs (skip off)", "avoided", "exec on (s)", "exec off (s)"},
		Notes:   []string{"results are held byte-identical with data skipping on and off at every point, both engines, by the lattice harness (go test ./internal/experiments -run TestReportQueriesVerify)"},
	}
	for _, pt := range pts {
		f.Rows = append(f.Rows, []string{
			pt.Window, fmt.Sprint(pt.Objects), fmt.Sprint(pt.Skipped),
			fmt.Sprint(pt.GetsPruned), fmt.Sprint(pt.GetsUnpruned),
			fmt.Sprintf("%.0f%%", 100*metrics.PruneRatio(pt.GetsPruned, pt.Skipped)),
			secs(pt.TimePruned), secs(pt.TimeUnpruned),
		})
	}
	return f, nil
}

// PruneReportPoint is one query × engine row of the pruning report.
type PruneReportPoint struct {
	Query        string
	Mode         skipper.Mode
	Objects      int
	Skipped      int
	GetsPruned   int
	GetsUnpruned int
	TimePruned   time.Duration
	TimeUnpruned time.Duration
}

// PruneReportData runs the join+agg and Q5-style selective workloads on
// both engines with data skipping on and off.
func (p Params) PruneReportData() ([]PruneReportPoint, error) {
	ds, err := p.encoded(p.clusteredDataset())
	if err != nil {
		return nil, err
	}
	queries := []struct {
		name string
		spec skipper.QuerySpec
	}{
		{"join+agg (shipdate 1994-01)", workload.QShipdateWindow(ds.Catalog, "1994-01-01", "1994-01-31")},
		{"Q5 selective", workload.Q5Selective(ds.Catalog)},
	}
	var out []PruneReportPoint
	for _, q := range queries {
		for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
			on, err := p.runPruneToggle(ds, q.spec, mode, true)
			if err != nil {
				return nil, fmt.Errorf("%s %s pruned: %w", q.name, mode, err)
			}
			off, err := p.runPruneToggle(ds, q.spec, mode, false)
			if err != nil {
				return nil, fmt.Errorf("%s %s unpruned: %w", q.name, mode, err)
			}
			if on.Rows != off.Rows {
				return nil, fmt.Errorf("%s %s: pruned run returned %d rows, unpruned %d", q.name, mode, on.Rows, off.Rows)
			}
			out = append(out, PruneReportPoint{
				Query: q.name, Mode: mode,
				Objects: len(q.spec.Join.Objects()), Skipped: on.SegmentsSkipped,
				GetsPruned: on.GetsIssued, GetsUnpruned: off.GetsIssued,
				TimePruned: on.Elapsed(), TimeUnpruned: off.Elapsed(),
			})
		}
	}
	return out, nil
}

// PruneReport renders PruneReportData (the `skipperbench -report prune` output).
func (p Params) PruneReport() (*Figure, error) {
	pts, err := p.PruneReportData()
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:      "Pruning report",
		Title:   "Segments fetched vs skipped with data skipping on/off (date-clustered dataset)",
		Columns: []string{"query", "engine", "input objects", "skipped", "GETs (skip on)", "GETs (skip off)", "avoided", "exec on (s)", "exec off (s)"},
		Notes:   []string{"results are held byte-identical with data skipping on and off, both engines, by the lattice harness (go test ./internal/experiments -run TestReportQueriesVerify)"},
	}
	for _, pt := range pts {
		f.Rows = append(f.Rows, []string{
			pt.Query, pt.Mode.String(), fmt.Sprint(pt.Objects), fmt.Sprint(pt.Skipped),
			fmt.Sprint(pt.GetsPruned), fmt.Sprint(pt.GetsUnpruned),
			fmt.Sprintf("%.0f%%", 100*metrics.PruneRatio(pt.GetsPruned, pt.Skipped)),
			secs(pt.TimePruned), secs(pt.TimeUnpruned),
		})
	}
	return f, nil
}
