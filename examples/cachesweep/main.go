// Cachesweep: the cache-capacity / performance trade-off of the
// cache-aware MJoin (the paper's Figure 11b scenario). As the MJoin
// buffer shrinks below the query's input footprint, evicted objects must
// be refetched from the CSD in later cycles, inflating both GET counts
// and execution time — but the join still completes correctly at any
// cache size down to one object per relation.
package main

import (
	"fmt"
	"log"

	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/workload"
)

func main() {
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
		cluster := &skipper.Cluster{Clients: []*skipper.Client{client}, Store: store}
		res, err := cluster.Run()
		if err != nil {
			log.Fatal(err)
		}
		cs := res.Clients[0]
		fmt.Printf("%-16d  %12.1f  %6d  %8d  %10d  %9d\n",
			cache, cs.Elapsed().Seconds(), cs.GetsIssued,
			cs.MJoin.Cycles, cs.MJoin.Evictions, cs.GetsIssued-footprint)
	}
	fmt.Println("\nEvery row computes the identical join result; only I/O traffic differs.")
}
