package experiments

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/lattice"
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

// sweepRow is a row of the feature sweeps: the change, on sweepWorkload(ds).
func sweepRow(ds *workload.Dataset, change Change, keys ...string) Row {
	return Row{Keys: keys, Change: change, Workload: fixedWorkload(sweepWorkload(ds))}
}

// cacheReport sweeps the shared-cache budget (0 = off) on the skipper
// engine.
func (p Params) cacheReport() (*Grid, error) {
	ds, err := encoded(p.clusteredDataset())
	if err != nil {
		return nil, err
	}
	g := &Grid{
		ID:    "Cache sweep",
		Title: fmt.Sprintf("Shared segment cache budget sweep (%d tenants × %d passes of the probe pair, one shared dataset, round-robin layout, skipper engine)", cacheSweepClients, cacheSweepPasses),
		Keys:  []string{"budget (objects)"},
		Base:  p.cell(skipper.ModeSkipper),
		Columns: []Column{
			{"device GETs", 0, deviceGets, count},
			{"switches", 0, switches, count},
			{"coalesced", 0, coalesced, count},
			{"cache hits", 0, cacheHits, count},
			{"hit ratio", 0, hitRatio, percent},
			{"makespan (s)", 0, makespan, seconds},
			{"avg client (s)", 0, avgClient, seconds},
		},
		Notes: []string{
			"results over v2 objects are held byte-identical to workload.Evaluate over the generated rows, cache on and off, across engines and pruning on/off, and GET conservation is checked on every run, by the lattice harness (go test ./internal/skipper ./internal/lattice)",
		},
	}
	footprint := len(ds.Catalog.AllObjects())
	budgets := []int{0}
	for _, b := range []int{footprint / 8, footprint / 4, footprint / 2, footprint} {
		if b > 0 && b != budgets[len(budgets)-1] {
			budgets = append(budgets, b)
		}
	}
	for _, b := range budgets {
		key := "off"
		if b > 0 {
			key = fmt.Sprint(b)
		}
		g.Rows = append(g.Rows, sweepRow(ds, func(c *lattice.Cell, _ *lattice.Workload) { c.SharedCache = b }, key))
	}
	return g, nil
}
