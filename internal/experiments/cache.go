package experiments

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/lattice"
	"repro/internal/metrics"
	"repro/internal/objstore"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/workload"
)

// This file is the evaluation of the shared segment cache and CSD
// request coalescing: a budget sweep over a repeated-query multi-tenant
// workload behind `skipperbench -report cache`. (That the cache never
// changes a result is the lattice harness's cache axis, not this
// report's.)

// cacheSweepClients and cacheSweepPasses shape the repeated-query
// multi-tenant workload: every client runs cacheSweepPasses rounds of
// the probe pair (workload.MultiPass) over one shared dataset, so both
// intra-tenant reuse (later passes) and cross-tenant reuse (other
// clients' fetches) are on the table.
const (
	cacheSweepClients = 3
	cacheSweepPasses  = 2
	cacheSweepGroups  = 4
)

// CachePoint is one budget of the shared-cache sweep.
type CachePoint struct {
	// BudgetObjects is the shared cache capacity in nominal 1 GB objects
	// (0 = cache disabled).
	BudgetObjects int
	// DeviceGets counts GETs that reached the CSD; Hits were served by
	// the cache instead.
	DeviceGets int
	// Switches is the device group-switch count.
	Switches int
	// Coalesced counts device requests merged onto another request's
	// transfer (csd.Stats.GetsCoalesced).
	Coalesced int
	// Hits / HitRatio summarize the cache's traffic.
	Hits     int64
	HitRatio float64
	// Makespan is the cluster completion time; AvgClient the mean
	// per-client workload time.
	Makespan  time.Duration
	AvgClient time.Duration
}

// sweepWorkload is the repeated-query multi-tenant workload of the
// feature sweeps: cacheSweepClients clients sharing ds, each running
// cacheSweepPasses rounds of the probe pair. The object layout is
// round-robin across groups, the adversarial no-locality placement, so
// group switches are actually at stake.
func sweepWorkload(ds *workload.Dataset) lattice.Workload {
	return lattice.Shared(ds, func(cat *catalog.Catalog) []skipper.QuerySpec {
		return workload.MultiPass(cat, cacheSweepPasses)
	}, cacheSweepClients, cacheSweepGroups)
}

// measured is the encoded dataset the pipeline, fault and scale sweeps
// measure on: the Params' format, except that FormatMem is promoted to
// FormatV2, the format the front ends serve.
func (p Params) measured() (*workload.Dataset, error) {
	f := p.Format
	if f == segment.FormatMem {
		f = segment.FormatV2
	}
	return objstore.ReencodeDataset(p.clusteredDataset(), f)
}

// CacheSweepData sweeps the shared-cache budget on the Params' format,
// skipper engine, and returns one point per budget (0 = off).
func (p Params) CacheSweepData() ([]CachePoint, error) {
	ds, err := p.encoded(p.clusteredDataset())
	if err != nil {
		return nil, err
	}
	footprint := len(ds.Catalog.AllObjects())
	budgets := []int{0}
	for _, b := range []int{footprint / 8, footprint / 4, footprint / 2, footprint} {
		if b > 0 && b != budgets[len(budgets)-1] {
			budgets = append(budgets, b)
		}
	}
	var out []CachePoint
	for _, b := range budgets {
		cell := p.cell(skipper.ModeSkipper)
		cell.SharedCache = b
		res, err := cell.Run(sweepWorkload(ds))
		if err != nil {
			return nil, fmt.Errorf("budget %d: %w", b, err)
		}
		pt := CachePoint{
			BudgetObjects: b,
			DeviceGets:    res.CSD.GetsReceived,
			Switches:      res.CSD.GroupSwitches,
			Coalesced:     res.CSD.GetsCoalesced,
			Makespan:      res.Makespan,
			AvgClient:     avgElapsed(res),
		}
		if res.Cache != nil {
			pt.Hits = res.Cache.Hits
			pt.HitRatio = metrics.HitRatio(res.Cache.Hits, res.Cache.Misses)
		}
		out = append(out, pt)
	}
	return out, nil
}

// CacheReport renders CacheSweepData (the `skipperbench -cache` output).
func (p Params) CacheReport() (*Figure, error) {
	pts, err := p.CacheSweepData()
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:    "Cache sweep",
		Title: fmt.Sprintf("Shared segment cache budget sweep (%d tenants × %d passes of the probe pair, one shared dataset, round-robin layout, skipper engine)", cacheSweepClients, cacheSweepPasses),
		Columns: []string{
			"budget (objects)", "device GETs", "switches", "coalesced",
			"cache hits", "hit ratio", "makespan (s)", "avg client (s)",
		},
		Notes: []string{
			"results are held byte-identical cache on/off across engines, formats (mem/v1/v2) and pruning on/off, and GET conservation is checked on every run, by the lattice harness (go test ./internal/skipper ./internal/lattice)",
		},
	}
	for _, pt := range pts {
		budget := "off"
		if pt.BudgetObjects > 0 {
			budget = fmt.Sprint(pt.BudgetObjects)
		}
		f.Rows = append(f.Rows, []string{
			budget, fmt.Sprint(pt.DeviceGets), fmt.Sprint(pt.Switches), fmt.Sprint(pt.Coalesced),
			fmt.Sprint(pt.Hits), fmt.Sprintf("%.0f%%", 100*pt.HitRatio),
			secs(pt.Makespan), secs(pt.AvgClient),
		})
	}
	return f, nil
}
