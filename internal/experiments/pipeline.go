package experiments

import (
	"fmt"

	"repro/internal/lattice"
	"repro/internal/skipper"
)

// This file is the evaluation of scheduler-aware prefetch behind
// `skipperbench -report pipeline`. (That prefetch never changes a result is
// the lattice harness's pipeline axis, not this report's.) It reports the
// simulated makespan — which prefetch improves, by disclosing future demand
// to the device scheduler — next to the host's wall-clock time for the run.

// pipelinePrefetchBytes is the sweep's in-flight prefetch budget: room
// for four of the paper's 1 GB objects ahead of demand.
const pipelinePrefetchBytes = 4e9

// pipelineReport measures both engines with prefetch off and on (no
// shared segment cache, so prefetched deliveries travel the staged
// hand-off path).
func (p Params) pipelineReport() (*Grid, error) {
	ds, err := p.measured()
	if err != nil {
		return nil, err
	}
	g := &Grid{
		ID: "Pipeline sweep",
		Title: fmt.Sprintf("Scheduler-aware prefetch (%d tenants × %d passes, round-robin layout; prefetch %.0f GB ahead)",
			cacheSweepClients, cacheSweepPasses, pipelinePrefetchBytes/1e9),
		Keys: []string{"engine", "pipeline"},
		Base: p.cell(skipper.ModeVanilla),
		Columns: []Column{
			{"makespan (s)", 0, makespan, seconds},
			{"avg client (s)", 0, avgClient, seconds},
			{"wall (ms)", 0, wall, millis},
			{"device GETs", 0, deviceGets, count},
			{"switches", 0, switches, count},
			{"prefetched", 0, prefetchIssued, count},
			{"pf served", 0, prefetchServed, count},
			{"pf useful", 0, prefetchUseful, count},
		},
		Notes: []string{
			"results are held byte-identical pipeline on/off across engines, the v2 format and pruning on/off, and GET conservation is checked on every run, by the lattice harness (go test ./internal/skipper ./internal/lattice)",
			"makespan/avg client are simulated time (prefetch discloses demand to the scheduler); wall is host time for the whole run",
		},
	}
	for _, mode := range engines {
		for on, state := range []string{"off", "on"} {
			budget := int64(on) * pipelinePrefetchBytes
			change := func(c *lattice.Cell, _ *lattice.Workload) { c.Mode, c.PrefetchBytes = mode, budget }
			g.Rows = append(g.Rows, sweepRow(ds, change, mode.String(), state))
		}
	}
	return g, nil
}
