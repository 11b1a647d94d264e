package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/lattice"
	"repro/internal/layout"
	"repro/internal/skipper"
)

// This file is the evaluation of the multi-device fleet behind
// `skipperbench -report scale`. (That a fleet never changes a result, and
// that GET conservation holds per device, is the lattice harness's fleet
// axis, not this report's.) It reports the makespan at each fleet size,
// then crashes device 0 of a two-device fleet and compares the
// degradation with and without full replication — the replicated fleet
// must fail over (zero failed queries under a permanent crash) and
// degrade strictly less than the unreplicated one. The sweep runs with
// prefetch off so a crash is recovered on the demand path — the
// prefetcher quietly re-routes around a dead device, which would hide the
// failovers the sweep measures.

// The rows of the scale report the crash rows' degradation is measured
// against: the clean one-device, two-device and replicated fleets.
const (
	scaleClean1, scaleClean2, scaleClean2Full = 0, 1, 3
)

// scaleReport measures the skipper engine on growing fleets and under a
// device-0 crash with and without full replication, and enforces the
// failover criteria: the replicated crash runs must actually fail over, the
// permanently-crashed replicated fleet must finish every query, and full
// replication must degrade strictly less than the unreplicated
// crash+restart fleet.
func (p Params) scaleReport() (*Grid, error) {
	ds, err := encoded(p.clusteredDataset())
	if err != nil {
		return nil, err
	}
	// The outage is long enough that sleeping it out (the unreplicated
	// fleet's only recourse) costs more than the extra group switches
	// the surviving device pays to serve the dead one's groups.
	const outage = 120 * time.Second
	g := &Grid{
		ID: "Scale-out sweep",
		Title: fmt.Sprintf("Device fleet scale-out and failover (%d tenants × %d passes, round-robin layout over %d groups, skipper engine, demand path; crash scenarios kill device 0 at 60s)",
			cacheSweepClients, cacheSweepPasses, cacheSweepGroups),
		Keys: []string{"scenario", "devices", "replication"},
		Base: p.faultCell(),
		Columns: []Column{
			{"makespan (s)", 0, makespan, scaleMakespan},
			{"avg client (s)", 0, avgClient, seconds},
			{"device GETs", 0, deviceGets, func(m *Matrix, r int, _ float64) string {
				var gets []string
				for d, st := range m.runs[r][0].Devices {
					gets = append(gets, fmt.Sprintf("d%d:%d", d, st.GetsReceived))
				}
				return strings.Join(gets, " ")
			}},
			{"crashes", 0, crashes, count},
			{"failovers", 0, failovers, count},
			{"retries", 0, retries, count},
			{"backoff (s)", 0, backoff, seconds},
		},
		Notes: []string{
			"results are held byte-identical 1 vs 2 vs 4 devices × replication (none/full) across engines on the v2 format, and per-device GET conservation is checked on every run, by the lattice harness (go test ./internal/skipper ./internal/lattice)",
			"crash rows: device 0 dies at 60s; 'd0 dead' never restarts — full replication finished every query by failing over, and its outage degradation (vs its own clean fleet) is gated strictly below the unreplicated fleet's",
		},
		Check: checkFailover,
	}
	for _, sc := range []struct {
		label string
		fleet skipper.FleetSpec
	}{
		{"1 device", skipper.FleetSpec{N: 1}},
		{"2 devices", skipper.FleetSpec{N: 2}},
		{"4 devices", skipper.FleetSpec{N: 4}},
		{"2 devices full repl", skipper.FleetSpec{N: 2, Replication: layout.ReplicateFull}},
		{"2 devices, d0 down 120s", skipper.FleetSpec{N: 2, Faults: crashPlan(outage)}},
		{"2 devices full repl, d0 down 120s", skipper.FleetSpec{N: 2, Replication: layout.ReplicateFull, Faults: crashPlan(outage)}},
		{"2 devices full repl, d0 dead", skipper.FleetSpec{N: 2, Replication: layout.ReplicateFull, Faults: crashPlan(0)}},
	} {
		change := func(c *lattice.Cell, _ *lattice.Workload) {
			c.Fleet.N, c.Fleet.Replication, c.Fleet.Faults = sc.fleet.N, sc.fleet.Replication, sc.fleet.Faults
		}
		g.Rows = append(g.Rows, sweepRow(ds, change, sc.label, fmt.Sprint(sc.fleet.N), sc.fleet.Replication.String()))
	}
	return g, nil
}

// scaleMakespan prints a clean fleet's makespan against one device's, and
// a crash row's against the clean fleet of the same replication.
func scaleMakespan(m *Matrix, r int, v float64) string {
	base, vs := scaleClean1, ""
	if m.At(r, "crashes") > 0 || m.At(r, "failovers") > 0 {
		base, vs = scaleClean2, " vs 2 dev"
		if m.Keys(r)[2] == "full" {
			base, vs = scaleClean2Full, " vs 2 dev full"
		}
	}
	return fmt.Sprintf("%.1f", time.Duration(v).Seconds()) + growth(r > 0, v, m.At(base, "makespan (s)"), vs)
}

// checkFailover holds the scale report to its claims. The crash scenarios
// must not pass vacuously, and replication must pay for itself: each crash
// run's degradation is measured against the clean fleet with the same
// replication policy, and failover must beat waiting out the outage.
func checkFailover(m *Matrix) error {
	const crashNone, crashFull, crashDead = 4, 5, 6
	if m.At(crashNone, "crashes") == 0 || m.At(crashFull, "crashes") == 0 || m.At(crashDead, "crashes") == 0 {
		return fmt.Errorf("scale sweep: a crash scenario recorded no device crash; the sweep is vacuous")
	}
	if m.At(crashFull, "failovers") == 0 || m.At(crashDead, "failovers") == 0 {
		return fmt.Errorf("scale sweep: replicated crash runs recorded no failovers (full=%d dead=%d)", int(m.At(crashFull, "failovers")), int(m.At(crashDead, "failovers")))
	}
	degree := func(crash, clean int) time.Duration {
		return time.Duration(m.At(crash, "makespan (s)") - m.At(clean, "makespan (s)"))
	}
	degNone, degFull := degree(crashNone, scaleClean2), degree(crashFull, scaleClean2Full)
	if degFull >= degNone {
		return fmt.Errorf("scale sweep: full replication degraded %v under the outage, not strictly better than unreplicated %v", degFull, degNone)
	}
	return nil
}
