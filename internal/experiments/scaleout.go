package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/layout"
	"repro/internal/skipper"
	"repro/internal/workload"
)

// This file is the evaluation of the multi-device fleet behind
// `skipperbench -report scale`. (That a fleet never changes a result, and
// that GET conservation holds per device, is the lattice harness's fleet
// axis, not this report's.) It reports the makespan at each fleet size,
// then crashes device 0 of a two-device fleet and compares the
// degradation with and without hot replication — the replicated fleet
// must fail over (zero failed queries under a permanent crash) and
// degrade strictly less than the unreplicated one. The sweep runs with
// prefetch off so a crash is recovered on the demand path — the
// prefetcher quietly re-routes around a dead device, which would hide the
// failovers the sweep measures.

// ScalePoint is one measured configuration of the scale-out sweep.
type ScalePoint struct {
	// Label names the scenario.
	Label string
	// Devices / Rep describe the fleet.
	Devices int
	Rep     layout.Replication
	// Makespan / AvgClient are simulated times; degradation is growth
	// over the matching clean row.
	Makespan  time.Duration
	AvgClient time.Duration
	// DeviceGets is each device's received GET count, indexed by id.
	DeviceGets []int
	// Crashes counts crash windows entered across the fleet.
	Crashes int
	// Failovers / Retries / Backoff aggregate the clients' recovery.
	Failovers int
	Retries   int
	Backoff   time.Duration
}

// measureScale runs one scenario and digests it into a point.
func (p Params) measureScale(ds *workload.Dataset, label string, fleet skipper.FleetSpec) (ScalePoint, error) {
	res, err := p.faultCell(fleet).Run(sweepWorkload(ds))
	if err != nil {
		return ScalePoint{}, err
	}
	pt := ScalePoint{
		Label:     label,
		Devices:   len(res.Devices),
		Rep:       fleet.Replication,
		Makespan:  res.Makespan,
		AvgClient: avgElapsed(res),
	}
	for _, st := range res.Devices {
		pt.DeviceGets = append(pt.DeviceGets, st.GetsReceived)
		pt.Crashes += st.Crashes
	}
	for _, cs := range res.Clients {
		pt.Failovers += cs.Failovers
		pt.Retries += cs.Retries
		pt.Backoff += cs.RetryBackoff
	}
	return pt, nil
}

// ScaleSweepData measures the skipper engine on growing fleets and under
// a device-0 crash with and without hot replication, and enforces the
// failover criteria: the replicated crash runs must actually fail over,
// the permanently-crashed replicated fleet must finish every query, and
// hot replication must degrade strictly less than the unreplicated
// crash+restart fleet.
func (p Params) ScaleSweepData() ([]ScalePoint, error) {
	ds, err := p.measured()
	if err != nil {
		return nil, err
	}
	hot := layout.Replication{Kind: layout.ReplicateHot}
	// The outage is long enough that sleeping it out (the unreplicated
	// fleet's only recourse) costs more than the extra group switches
	// the surviving device pays to serve the dead one's groups.
	const outage = 120 * time.Second
	scenarios := []struct {
		label string
		fleet skipper.FleetSpec
	}{
		{"1 device", skipper.FleetSpec{N: 1}},
		{"2 devices", skipper.FleetSpec{N: 2}},
		{"4 devices", skipper.FleetSpec{N: 4}},
		{"2 devices hot repl", skipper.FleetSpec{N: 2, Replication: hot}},
		{"2 devices, d0 down 120s", skipper.FleetSpec{N: 2, Faults: crashPlan(outage)}},
		{"2 devices hot repl, d0 down 120s", skipper.FleetSpec{N: 2, Replication: hot, Faults: crashPlan(outage)}},
		{"2 devices hot repl, d0 dead", skipper.FleetSpec{N: 2, Replication: hot, Faults: crashPlan(0)}},
	}
	pts := make([]ScalePoint, 0, len(scenarios))
	for _, sc := range scenarios {
		pt, err := p.measureScale(ds, sc.label, sc.fleet)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.label, err)
		}
		pts = append(pts, pt)
	}
	// The crash scenarios must not pass vacuously, and replication must
	// pay for itself: each crash run's degradation is measured against
	// the clean fleet with the same replication policy, and failover
	// must beat waiting out the outage.
	cleanNone, cleanHot, crashNone, crashHot, crashDead := pts[1], pts[3], pts[4], pts[5], pts[6]
	if crashNone.Crashes == 0 || crashHot.Crashes == 0 || crashDead.Crashes == 0 {
		return nil, fmt.Errorf("scale sweep: a crash scenario recorded no device crash; the sweep is vacuous")
	}
	if crashHot.Failovers == 0 || crashDead.Failovers == 0 {
		return nil, fmt.Errorf("scale sweep: replicated crash runs recorded no failovers (hot=%d dead=%d)", crashHot.Failovers, crashDead.Failovers)
	}
	degNone := crashNone.Makespan - cleanNone.Makespan
	degHot := crashHot.Makespan - cleanHot.Makespan
	if degHot >= degNone {
		return nil, fmt.Errorf("scale sweep: hot replication degraded %v under the outage, not strictly better than unreplicated %v", degHot, degNone)
	}
	return pts, nil
}

// ScaleReport renders ScaleSweepData (`skipperbench -report scale`).
func (p Params) ScaleReport() (*Figure, error) {
	pts, err := p.ScaleSweepData()
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID: "Scale-out sweep",
		Title: fmt.Sprintf("Device fleet scale-out and failover (%d tenants × %d passes, round-robin layout over %d groups, skipper engine, demand path; crash scenarios kill device 0 at 60s)",
			cacheSweepClients, cacheSweepPasses, cacheSweepGroups),
		Columns: []string{
			"scenario", "devices", "replication", "makespan (s)", "avg client (s)",
			"device GETs", "crashes", "failovers", "retries", "backoff (s)",
		},
	}
	var clean1, clean2, clean2hot time.Duration
	for i, pt := range pts {
		switch pt.Label {
		case "1 device":
			clean1 = pt.Makespan
		case "2 devices":
			clean2 = pt.Makespan
		case "2 devices hot repl":
			clean2hot = pt.Makespan
		}
		// Clean fleet rows show speed-up over one device; crash rows show
		// degradation over the clean fleet with the same replication.
		base, vs := clean1, ""
		if pt.crashRow() {
			base, vs = clean2, " vs 2 dev"
			if pt.Rep.Kind == layout.ReplicateHot {
				base, vs = clean2hot, " vs 2 dev hot"
			}
		}
		makespan := fmt.Sprintf("%.1f", pt.Makespan.Seconds())
		if i > 0 && base > 0 {
			makespan += fmt.Sprintf(" (%+.0f%%%s)", 100*(pt.Makespan.Seconds()-base.Seconds())/base.Seconds(), vs)
		}
		gets := make([]string, len(pt.DeviceGets))
		for d, g := range pt.DeviceGets {
			gets[d] = fmt.Sprintf("d%d:%d", d, g)
		}
		f.Rows = append(f.Rows, []string{
			pt.Label,
			fmt.Sprintf("%d", pt.Devices),
			pt.Rep.String(),
			makespan,
			fmt.Sprintf("%.1f", pt.AvgClient.Seconds()),
			strings.Join(gets, " "),
			fmt.Sprintf("%d", pt.Crashes),
			fmt.Sprintf("%d", pt.Failovers),
			fmt.Sprintf("%d", pt.Retries),
			fmt.Sprintf("%.1f", pt.Backoff.Seconds()),
		})
	}
	f.Notes = append(f.Notes,
		"results are held byte-identical 1 vs 2 vs 4 devices × replication (none/hot/full) across engines and formats (v1/v2), and per-device GET conservation is checked on every run, by the lattice harness (go test ./internal/skipper ./internal/lattice)",
		"crash rows: device 0 dies at 60s; 'd0 dead' never restarts — hot replication finished every query by failing over, and its outage degradation (vs its own clean fleet) is gated strictly below the unreplicated fleet's",
	)
	return f, nil
}

// crashRow reports whether the point ran a fault plan (its degradation
// is measured against the clean fleet of the same size).
func (pt ScalePoint) crashRow() bool { return pt.Crashes > 0 || pt.Failovers > 0 }
