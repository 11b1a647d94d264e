// Scheduling: fairness vs efficiency of CSD group-switch scheduling (the
// paper's Figure 12 scenario). Five Skipper clients repeat TPC-H Q12 on a
// skewed layout — two groups host two clients each, the last group hosts
// a single client. Max-Queries maximizes throughput but starves the lone
// client; FCFS is fair but slow; the paper's rank-based policy
// R(g) = Ng + K·ΣWq(g) balances both.
package main

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

const (
	tenants = 5
	repeats = 6
)

func buildClients(store map[segment.ObjectID]*segment.Segment) []*skipper.Client {
	clients := make([]*skipper.Client, tenants)
	for t := 0; t < tenants; t++ {
		ds := workload.TPCH(t, workload.TPCHConfig{SF: 12, RowsPerObject: 8, Seed: 5})
		ds.MergeInto(store)
		var queries []skipper.QuerySpec
		for r := 0; r < repeats; r++ {
			queries = append(queries, workload.Q12(ds.Catalog))
		}
		clients[t] = &skipper.Client{
			Tenant: t, Mode: skipper.ModeSkipper,
			Catalog: ds.Catalog, Queries: queries, CacheObjects: 16,
		}
	}
	return clients
}

func main() {
	// Ideal per-query time: one client alone on the device.
	aloneStore := make(map[segment.ObjectID]*segment.Segment)
	alone := buildClients(aloneStore)[:1]
	res, err := (&skipper.Cluster{Clients: alone, Store: aloneStore}).Run()
	if err != nil {
		log.Fatal(err)
	}
	ideal := res.Clients[0].Elapsed() / repeats
	fmt.Printf("single-client per-query time: %.1fs\n\n", ideal.Seconds())

	fmt.Printf("%-12s  %14s  %11s  %16s  %8s\n",
		"policy", "L2-norm", "max stretch", "cumulative (s)", "switches")
	for _, pol := range []csd.Scheduler{
		csd.NewFCFSQuery(),
		csd.NewMaxQueries(),
		csd.NewRankBased(1),
	} {
		store := make(map[segment.ObjectID]*segment.Segment)
		clients := buildClients(store)
		cfg := csd.DefaultConfig()
		cfg.Scheduler = pol
		cluster := &skipper.Cluster{
			Clients: clients,
			Store:   store,
			Layout:  layout.ByTenant{Groups: []int{0, 0, 1, 1, 2}},
			Fleet:   skipper.FleetSpec{Device: cfg},
		}
		res, err := cluster.Run()
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
	fmt.Println("fcfs-query:  fair but pays many extra group switches;")
	fmt.Println("rank-based:  the paper's middle ground (K=1).")
}
