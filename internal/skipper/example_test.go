package skipper_test

import (
	"fmt"
	"log"
	"time"

	"repro/internal/csd"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/workload"
)

// q12Tenants is n tenants on one store, each with its own TPC-H dataset
// generated by cfg and repeating Q12 `repeats` times, with data skipping
// off: the scenarios model the paper's engines, which read every object of
// a relation.
func q12Tenants(mode skipper.Mode, n, repeats, cache int, cfg workload.TPCHConfig) ([]*skipper.Client, map[segment.ObjectID]*segment.Segment) {
	store := make(map[segment.ObjectID]*segment.Segment)
	clients := make([]*skipper.Client, n)
	for t := range clients {
		ds := workload.TPCH(t, cfg)
		ds.MergeInto(store)
		queries := make([]skipper.QuerySpec, repeats)
		for r := range queries {
			queries[r] = workload.Q12(ds.Catalog)
		}
		clients[t] = &skipper.Client{Tenant: t, Mode: mode, Catalog: ds.Catalog, Queries: queries, CacheObjects: cache, NoStatsPruning: true}
	}
	return clients, store
}

// One analytical query over data on a simulated Cold Storage Device with
// both engines — the classical pull-based engine ("vanilla PostgreSQL")
// and Skipper's cache-aware MJoin — comparing execution times and
// results.
func ExampleCluster_Run_quickstart() {
	// A small TPC-H-like database for tenant 0. Each relation is split
	// into 1 GB segments stored as CSD objects.
	ds := workload.TPCH(0, workload.TPCHConfig{SF: 10, RowsPerObject: 16, Seed: 42})
	fmt.Printf("dataset: %d objects across %v\n",
		len(ds.Catalog.AllObjects()), ds.Catalog.TableNames())

	// TPC-H Q12: lineitem ⋈ orders with shipmode/date predicates.
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		store := make(map[segment.ObjectID]*segment.Segment)
		ds.MergeInto(store)
		client := &skipper.Client{
			Tenant:       0,
			Mode:         mode,
			Catalog:      ds.Catalog,
			Queries:      []skipper.QuerySpec{workload.Q12(ds.Catalog)},
			CacheObjects: 8, // MJoin buffer: 8 objects
		}
		res, err := (&skipper.Cluster{Clients: []*skipper.Client{client}, Store: store}).Run()
		if err != nil {
			log.Fatal(err)
		}
		cs := res.Clients[0]
		fmt.Printf("\n%-8s finished in %8.1fs (virtual) — %d GETs, %d switches, %d result rows\n",
			mode, cs.Elapsed().Seconds(), cs.GetsIssued, res.CSD.GroupSwitches, cs.Rows)
		fmt.Printf("         processing %.1fs, stalled %.1fs, fuse %.1fs\n",
			cs.Processing.Seconds(), cs.Stalled().Seconds(), cs.Fuse.Seconds())
	}

	// The query result itself, evaluated locally:
	rows, err := workload.Evaluate(ds, workload.Q12(ds.Catalog))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nQ12 result (shipmode, high_line_count, low_line_count):")
	for _, r := range rows {
		fmt.Printf("  %v\n", r)
	}
	// Output:
	// dataset: 17 objects across [region nation customer supplier part partsupp orders lineitem]
	//
	// vanilla  finished in    191.6s (virtual) — 11 GETs, 0 switches, 2 result rows
	//          processing 78.5s, stalled 110.0s, fuse 3.0s
	//
	// skipper  finished in    117.6s (virtual) — 11 GETs, 0 switches, 2 result rows
	//          processing 83.6s, stalled 34.0s, fuse 0.0s
	//
	// Q12 result (shipmode, high_line_count, low_line_count):
	//   (MAIL, 0, 3)
	//   (SHIP, 2, 0)
}

// The cache-capacity / performance trade-off of the cache-aware MJoin
// (the paper's Figure 11b scenario). As the MJoin buffer shrinks below
// the query's input footprint, evicted objects must be refetched from the
// CSD in later cycles, inflating both GET counts and execution time — but
// the join still completes correctly at any cache size down to one object
// per relation.
func ExampleCluster_Run_cacheSweep() {
	base := workload.TPCH(0, workload.TPCHConfig{SF: 20, RowsPerObject: 10, Seed: 3})
	spec := workload.Q5(base.Catalog)
	footprint := len(spec.Join.Objects())
	subplans, err := spec.Join.NumSubplans()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TPC-H Q5: 6-relation join, %d input objects, %d subplans\n\n", footprint, subplans)
	fmt.Printf("%-16s  %12s  %6s  %8s  %10s  %9s\n",
		"cache (objects)", "time (s)", "GETs", "cycles", "evictions", "reissued")

	for _, cache := range []int{6, 8, 10, 12, 16, 20, footprint} {
		store := make(map[segment.ObjectID]*segment.Segment)
		base.MergeInto(store)
		client := &skipper.Client{
			Tenant:       0,
			Mode:         skipper.ModeSkipper,
			Catalog:      base.Catalog,
			Queries:      []skipper.QuerySpec{workload.Q5(base.Catalog)},
			CacheObjects: cache,
		}
		res, err := (&skipper.Cluster{Clients: []*skipper.Client{client}, Store: store}).Run()
		if err != nil {
			log.Fatal(err)
		}
		cs := res.Clients[0]
		fmt.Printf("%-16d  %12.1f  %6d  %8d  %10d  %9d\n",
			cache, cs.Elapsed().Seconds(), cs.GetsIssued,
			cs.MJoin.Cycles, cs.MJoin.Evictions, cs.GetsIssued-footprint)
	}
	fmt.Println("\nEvery row computes the identical join result; only I/O traffic differs.")
	// Output:
	// TPC-H Q5: 6-relation join, 26 input objects, 72 subplans
	//
	// cache (objects)       time (s)    GETs    cycles   evictions   reissued
	// 6                        482.8      46         3          38         20
	// 8                        405.2      39         2          29         13
	// 10                       267.6      26         1          14          0
	// 12                       267.6      26         1          12          0
	// 16                       267.6      26         1           8          0
	// 20                       267.6      26         1           4          0
	// 26                       267.6      26         1           0          0
	//
	// Every row computes the identical join result; only I/O traffic differs.
}

// Five database clients share one Cold Storage Device, each with its data
// in a separate disk group (the paper's Figure 7 scenario). The
// pull-based engine collapses — every pull forces a group switch — while
// Skipper batches all requests upfront so the CSD drains one group at a
// time.
func ExampleCluster_Run_multiTenant() {
	const tenants = 5
	run := func(mode skipper.Mode) *skipper.RunResult {
		clients, store := q12Tenants(mode, tenants, 1, 16, workload.TPCHConfig{SF: 25, RowsPerObject: 8, Seed: 7})
		res, err := (&skipper.Cluster{Clients: clients, Store: store}).Run()
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	fmt.Println("5 tenants, TPC-H Q12, one disk group per tenant, 10 s group switch")
	fmt.Println()
	fmt.Printf("%-8s  %10s  %10s  %8s  %8s\n", "engine", "avg (s)", "max (s)", "switches", "GETs")
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		res := run(mode)
		var sum, max float64
		gets := 0
		for _, cs := range res.Clients {
			el := cs.Elapsed().Seconds()
			sum += el
			if el > max {
				max = el
			}
			gets += cs.GetsIssued
		}
		fmt.Printf("%-8s  %10.1f  %10.1f  %8d  %8d\n",
			mode, sum/tenants, max, res.CSD.GroupSwitches, gets)
	}
	fmt.Println("\nPer-tenant completion times (skipper):")
	for _, cs := range run(skipper.ModeSkipper).Clients {
		fmt.Printf("  tenant %d: %.1fs\n", cs.Tenant, cs.Elapsed().Seconds())
	}
	// Output:
	// 5 tenants, TPC-H Q12, one disk group per tenant, 10 s group switch
	//
	// engine       avg (s)     max (s)  switches      GETs
	// vanilla       2845.4      2897.4       144       145
	// skipper        897.6      1497.6         4       145
	//
	// Per-tenant completion times (skipper):
	//   tenant 0: 297.6s
	//   tenant 1: 597.6s
	//   tenant 2: 897.6s
	//   tenant 3: 1197.6s
	//   tenant 4: 1497.6s
}

// The MAID energy story that motivates cold storage devices (§2.2): only
// one disk group is spun up at a time, so a CSD rack draws a fraction of
// an always-on JBOD's power — and Skipper's batch-per-group execution
// pays far fewer spin-up surges than the pull-based engine's per-object
// group switching.
func ExampleCluster_Run_power() {
	const tenants = 4
	pm := csd.PelicanPower()
	fmt.Printf("Pelican-class rack: %.0f W idle, +%.0f W per active group, %.0f kJ per switch\n\n",
		pm.IdleWatts, pm.GroupActiveWatts, pm.SwitchJoules/1000)
	fmt.Printf("%-8s  %12s  %9s  %14s  %14s\n",
		"engine", "makespan (s)", "switches", "CSD energy", "always-on JBOD")
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		clients, store := q12Tenants(mode, tenants, 1, 14, workload.TPCHConfig{SF: 20, RowsPerObject: 8, Seed: 9})
		res, err := (&skipper.Cluster{Clients: clients, Store: store, Fleet: skipper.FleetSpec{Device: csd.Pelican()}}).Run()
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
	// Output:
	// Pelican-class rack: 2000 W idle, +1100 W per active group, 5 kJ per switch
	//
	// engine    makespan (s)   switches      CSD energy  always-on JBOD
	// vanilla            791         87          2.1 MJ          5.1 MJ
	// skipper            258          3          0.8 MJ          1.7 MJ
	//
	// The MAID discipline (one spun-up group) cuts rack energy several-fold
	// versus spinning every group; Skipper additionally avoids the per-object
	// switch surges the pull-based engine triggers.
}

// Fairness vs efficiency of CSD group-switch scheduling (the paper's
// Figure 12 scenario). Five Skipper clients repeat TPC-H Q12 on a skewed
// layout — two groups host two clients each, the last group hosts a
// single client. Max-Queries maximizes throughput but starves the lone
// client; FCFS is fair but slow; the paper's rank-based policy
// R(g) = Ng + K·ΣWq(g) balances both.
func ExampleCluster_Run_scheduling() {
	const tenants, repeats = 5, 6
	cfg := workload.TPCHConfig{SF: 12, RowsPerObject: 8, Seed: 5}

	// Ideal per-query time: one client alone on the device.
	alone, aloneStore := q12Tenants(skipper.ModeSkipper, tenants, repeats, 16, cfg)
	res, err := (&skipper.Cluster{Clients: alone[:1], Store: aloneStore}).Run()
	if err != nil {
		log.Fatal(err)
	}
	ideal := res.Clients[0].Elapsed() / repeats
	fmt.Printf("single-client per-query time: %.1fs\n\n", ideal.Seconds())

	fmt.Printf("%-12s  %14s  %11s  %16s  %8s\n",
		"policy", "L2-norm", "max stretch", "cumulative (s)", "switches")
	for _, pol := range []csd.Scheduler{
		csd.NewFCFSObject(),
		csd.NewMaxQueries(),
		csd.NewRankBased(),
	} {
		clients, store := q12Tenants(skipper.ModeSkipper, tenants, repeats, 16, cfg)
		dev := csd.DefaultConfig()
		dev.Scheduler = pol
		res, err := (&skipper.Cluster{
			Clients: clients,
			Store:   store,
			Layout:  layout.ByTenant{Groups: []int{0, 0, 1, 1, 2}},
			Fleet:   skipper.FleetSpec{Device: dev},
		}).Run()
		if err != nil {
			log.Fatal(err)
		}
		var stretches []float64
		var cum time.Duration
		for _, cs := range res.Clients {
			cum += cs.Elapsed()
			for _, qr := range cs.PerQuery {
				stretches = append(stretches, metrics.Stretch(qr.Finish-qr.Start, ideal))
			}
		}
		fmt.Printf("%-12s  %14.2f  %11.2f  %16.1f  %8d\n",
			pol.Name(), metrics.L2Norm(stretches), metrics.Max(stretches),
			cum.Seconds(), res.CSD.GroupSwitches)
	}
	fmt.Println("\nmax-queries: fastest but starves the lone tenant on group 2;")
	fmt.Println("fcfs-object: fair but pays many extra group switches;")
	fmt.Println("rank-based:  the paper's middle ground (K=1).")
	// Output:
	// single-client per-query time: 147.6s
	//
	// policy               L2-norm  max stretch    cumulative (s)  switches
	// fcfs-object            15.87         3.05           12588.0        17
	// max-queries            16.49        13.20            9576.0        12
	// rank-based             14.92         4.07           11383.2        15
	//
	// max-queries: fastest but starves the lone tenant on group 2;
	// fcfs-object: fair but pays many extra group switches;
	// rank-based:  the paper's middle ground (K=1).
}
