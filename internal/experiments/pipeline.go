package experiments

import (
	"fmt"
	"time"

	"repro/internal/skipper"
	"repro/internal/workload"
)

// This file is the evaluation of scheduler-aware prefetch behind
// `skipperbench -report pipeline`. (That prefetch never changes a result is
// the lattice harness's pipeline axis, not this report's.) It reports the
// simulated makespan — which prefetch improves, by disclosing future demand
// to the device scheduler — next to the host's wall-clock time for the run.

// pipelinePrefetchBytes is the sweep's in-flight prefetch budget: room
// for four of the paper's 1 GB objects ahead of demand.
const pipelinePrefetchBytes = 4e9

// PipelinePoint is one measured configuration of the pipeline sweep.
type PipelinePoint struct {
	Mode skipper.Mode
	// On reports whether prefetch was enabled.
	On bool
	// Makespan / AvgClient are simulated (virtual) times; Wall is the
	// real time the cluster run took on the host.
	Makespan  time.Duration
	AvgClient time.Duration
	Wall      time.Duration
	// DeviceGets counts GETs that reached the CSD (demand + prefetch).
	DeviceGets int
	// Switches is the device group-switch count.
	Switches int
	// PrefetchIssued / PrefetchServed / PrefetchUseful aggregate the
	// clients' prefetch counters.
	PrefetchIssued, PrefetchServed, PrefetchUseful int
}

// measurePipeline runs one configuration and digests it into a point.
func (p Params) measurePipeline(ds *workload.Dataset, mode skipper.Mode, prefetchBytes int64) (PipelinePoint, error) {
	cell := p.cell(mode)
	cell.PrefetchBytes = prefetchBytes
	res, err := cell.Run(sweepWorkload(ds))
	if err != nil {
		return PipelinePoint{}, err
	}
	pt := PipelinePoint{
		Mode:       mode,
		On:         prefetchBytes > 0,
		Makespan:   res.Makespan,
		AvgClient:  avgElapsed(res),
		Wall:       res.Wall,
		DeviceGets: res.CSD.GetsReceived,
		Switches:   res.CSD.GroupSwitches,
	}
	for _, cs := range res.Clients {
		pt.PrefetchIssued += cs.PrefetchIssued
		pt.PrefetchServed += cs.PrefetchServed
		pt.PrefetchUseful += cs.PrefetchUseful
	}
	return pt, nil
}

// PipelineSweepData measures both engines with prefetch off and on
// (no shared segment cache, so prefetched deliveries travel the staged
// hand-off path) and returns the four points.
func (p Params) PipelineSweepData() ([]PipelinePoint, error) {
	ds, err := p.measured()
	if err != nil {
		return nil, err
	}
	var out []PipelinePoint
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		for _, budget := range []int64{0, pipelinePrefetchBytes} {
			pt, err := p.measurePipeline(ds, mode, budget)
			if err != nil {
				return nil, fmt.Errorf("%s pipeline=%v: %w", mode, budget > 0, err)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// PipelineReport renders PipelineSweepData (`skipperbench -report pipeline`).
func (p Params) PipelineReport() (*Figure, error) {
	pts, err := p.PipelineSweepData()
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID: "Pipeline sweep",
		Title: fmt.Sprintf("Scheduler-aware prefetch (%d tenants × %d passes, round-robin layout; prefetch %.0f GB ahead)",
			cacheSweepClients, cacheSweepPasses, pipelinePrefetchBytes/1e9),
		Columns: []string{
			"engine", "pipeline", "makespan (s)", "avg client (s)", "wall (ms)",
			"device GETs", "switches", "prefetched", "pf served", "pf useful",
		},
		Notes: []string{
			"results are held byte-identical pipeline on/off across engines, the v2 format and pruning on/off, and GET conservation is checked on every run, by the lattice harness (go test ./internal/skipper ./internal/lattice)",
			"makespan/avg client are simulated time (prefetch discloses demand to the scheduler); wall is host time for the whole run",
		},
	}
	for _, pt := range pts {
		state := "off"
		if pt.On {
			state = "on"
		}
		f.Rows = append(f.Rows, []string{
			fmt.Sprint(pt.Mode), state, secs(pt.Makespan), secs(pt.AvgClient),
			fmt.Sprintf("%.1f", float64(pt.Wall.Microseconds())/1000),
			fmt.Sprint(pt.DeviceGets), fmt.Sprint(pt.Switches),
			fmt.Sprint(pt.PrefetchIssued), fmt.Sprint(pt.PrefetchServed), fmt.Sprint(pt.PrefetchUseful),
		})
	}
	return f, nil
}
