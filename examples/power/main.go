// Power: the MAID energy story that motivates cold storage devices
// (§2.2): only one disk group is spun up at a time, so a CSD rack draws a
// fraction of an always-on JBOD's power — and Skipper's batch-per-group
// execution pays far fewer spin-up surges than the pull-based engine's
// per-object group switching.
package main

import (
	"fmt"
	"log"

	"repro/internal/csd"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/workload"
)

const tenants = 4

func run(mode skipper.Mode) (*skipper.RunResult, error) {
	store := make(map[segment.ObjectID]*segment.Segment)
	clients := make([]*skipper.Client, tenants)
	for t := 0; t < tenants; t++ {
		ds := workload.TPCH(t, workload.TPCHConfig{SF: 20, RowsPerObject: 8, Seed: 9})
		ds.MergeInto(store)
		clients[t] = &skipper.Client{
			Tenant: t, Mode: mode, Catalog: ds.Catalog,
			Queries:      []skipper.QuerySpec{workload.Q12(ds.Catalog)},
			CacheObjects: 14,
		}
	}
	return (&skipper.Cluster{Clients: clients, Store: store, Fleet: skipper.FleetSpec{Device: csd.Pelican()}}).Run()
}

func main() {
	pm := csd.PelicanPower()
	fmt.Printf("Pelican-class rack: %.0f W idle, +%.0f W per active group, %.0f kJ per switch\n\n",
		pm.IdleWatts, pm.GroupActiveWatts, pm.SwitchJoules/1000)
	fmt.Printf("%-8s  %12s  %9s  %14s  %14s\n",
		"engine", "makespan (s)", "switches", "CSD energy", "always-on JBOD")
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		res, err := run(mode)
		if err != nil {
			log.Fatal(err)
		}
		e := pm.Energy(res.CSD, res.Makespan)
		jbod := pm.JBODEnergy(tenants, res.Makespan)
		fmt.Printf("%-8s  %12.0f  %9d  %11.1f MJ  %11.1f MJ\n",
			mode, res.Makespan.Seconds(), res.CSD.GroupSwitches, e/1e6, jbod/1e6)
	}
	fmt.Println("\nThe MAID discipline (one spun-up group) cuts rack energy several-fold")
	fmt.Println("versus spinning every group; Skipper additionally avoids the per-object")
	fmt.Println("switch surges the pull-based engine triggers.")
}
