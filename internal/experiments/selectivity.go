package experiments

import (
	"fmt"
	"time"

	"repro/internal/csd"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/mjoin"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// This file is the evaluation of the statistics subsystem (zone maps +
// Bloom filters): a selectivity sweep showing how predicate width
// translates into skipped CSD requests, and the pruning report behind
// `skipperbench -prune`, which doubles as the CI divergence check —
// every data point is produced twice, with data skipping on and off, and
// the two result sets must match byte for byte.

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
	store := make(mapStore)
	ds.MergeInto(store)
	pr := prune
	client := &skipper.Client{
		Tenant: 0, Mode: mode, Catalog: ds.Catalog,
		Queries:      []skipper.QuerySpec{spec},
		CacheObjects: p.CacheObjects,
		StatsPruning: &pr,
		Parallelism:  p.Parallelism,
	}
	cfg := csd.DefaultConfig()
	cfg.GroupSwitch = p.GroupSwitch
	cfg.Bandwidth = p.Bandwidth
	res, err := (&skipper.Cluster{Clients: []*skipper.Client{client}, CSD: cfg, Store: store}).Run()
	if err != nil {
		return nil, err
	}
	return res.Clients[0], nil
}

// SelectivitySweepData sweeps the predicate window of a Q12-style join
// over the date-clustered dataset on the skipper engine, with data
// skipping on and off, verifying byte-identical results at every point.
func (p Params) SelectivitySweepData() ([]SelectivityPoint, error) {
	ds, err := p.encoded(p.clusteredDataset())
	if err != nil {
		return nil, err
	}
	var out []SelectivityPoint
	for _, w := range selectivityWindows {
		spec := workload.QShipdateWindow(ds.Catalog, w.lo, w.hi)
		if err := verifyPruneIdentical(ds, spec); err != nil {
			return nil, fmt.Errorf("window %q: %w", w.name, err)
		}
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
		Notes:   []string{"results verified byte-identical with data skipping on and off at every point, both engines"},
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
// both engines with data skipping on and off. It fails — rather than
// report — if any pair of runs diverges in its results, which is what
// lets CI use `skipperbench -prune` as a correctness gate.
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
		if err := verifyPruneIdentical(ds, q.spec); err != nil {
			return nil, fmt.Errorf("%s: %w", q.name, err)
		}
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

// PruneReport renders PruneReportData (the `skipperbench -prune` output).
func (p Params) PruneReport() (*Figure, error) {
	pts, err := p.PruneReportData()
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:      "Pruning report",
		Title:   "Segments fetched vs skipped with data skipping on/off (date-clustered dataset)",
		Columns: []string{"query", "engine", "input objects", "skipped", "GETs (skip on)", "GETs (skip off)", "avoided", "exec on (s)", "exec off (s)"},
		Notes:   []string{"results verified byte-identical with data skipping on and off, both engines"},
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

// verifyPruneIdentical executes the spec with data skipping on and off,
// on both the pull engine and the MJoin path, over the in-memory store,
// and requires the four result sets to be byte-identical. The probe
// queries end in ORDER BY over unique keys with integer aggregates, so
// exact equality is the correct bar in every mode.
func verifyPruneIdentical(ds *workload.Dataset, spec skipper.QuerySpec) error {
	var want []tuple.Row
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		for _, prune := range []bool{true, false} {
			rows, err := evalLocal(ds, spec, mode, prune)
			if err != nil {
				return fmt.Errorf("%s prune=%v: %w", mode, prune, err)
			}
			if want == nil {
				want = rows
				continue
			}
			if err := equalRows(want, rows); err != nil {
				return fmt.Errorf("%s prune=%v diverges: %w", mode, prune, err)
			}
		}
	}
	return nil
}

// evalLocal runs the spec without simulation: the pull plan for
// ModeVanilla, mjoin.RunBatches over an immediate source for ModeSkipper, with
// data skipping per prune.
func evalLocal(ds *workload.Dataset, spec skipper.QuerySpec, mode skipper.Mode, prune bool) ([]tuple.Row, error) {
	if mode == skipper.ModeVanilla {
		ctx := engine.NewTestCtx(ds.Store)
		it, err := skipper.BuildPullPlanPruned(ctx, spec.Join, prune)
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
	res, err := mjoin.RunBatches(spec.Join, cfg, &immediateSource{store: ds.Store})
	if err != nil {
		return nil, err
	}
	var it engine.Iterator = engine.NewBatchValues(res.Schema, res.Batches)
	if spec.Shape != nil {
		it = spec.Shape(it)
	}
	return engine.Collect(it)
}

// equalRows requires two result sets to be identical, row for row.
func equalRows(a, b []tuple.Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows vs %d rows", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return fmt.Errorf("row %d: %s vs %s", i, a[i], b[i])
		}
	}
	return nil
}

// immediateSource is an mjoin.Source that serves requests instantly from
// memory, in request order.
type immediateSource struct {
	store map[segment.ObjectID]*segment.Segment
	queue []*segment.Segment
}

// Request implements mjoin.Source.
func (s *immediateSource) Request(objs []segment.ObjectID) {
	for _, id := range objs {
		s.queue = append(s.queue, s.store[id])
	}
}

// NextArrival implements mjoin.Source.
func (s *immediateSource) NextArrival() (*segment.Segment, error) {
	sg := s.queue[0]
	s.queue = s.queue[1:]
	return sg, nil
}
