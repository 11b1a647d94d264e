// The segment cache's leases: a run leases every memoized segment the
// cache hands it and returns the leases when it ends, and only then does an
// evicted entry's memo give its decoded vectors back to the working-memory
// pool. In a test binary released memory is poisoned, so a memo recycled
// while a run still reads its views shows as wrong rows. Runs under CI's
// -race job.
package skipper_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/lattice"
	"repro/internal/layout"
	"repro/internal/objstore"
	"repro/internal/segcache"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/sql"
	"repro/internal/workload"
)

// TestEvictedViewsOutliveTheirEntry: MJoin keeps an unfiltered relation's
// arrival in its state as views of the cache entry's decoded columns
// (tuple.ViewOf), and with a one-object segment cache the other relation's
// delivery evicts that entry before the join probes the views. The run's
// lease keeps the evicted memo's vectors out of the pool until the run
// ends; recycled at eviction, they read as the pool's poison or as another
// decode's cells, and the rows differ from workload.Evaluate's.
func TestEvictedViewsOutliveTheirEntry(t *testing.T) {
	ds := workload.TPCH(0, workload.TPCHConfig{SF: 8, RowsPerObject: 40, Seed: 3})
	spec, err := (&sql.Planner{Catalog: ds.Catalog}).Plan(`SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY n_name`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.Evaluate(ds, spec)
	if err != nil || len(want) == 0 {
		t.Fatalf("oracle: %d rows, %v", len(want), err)
	}
	enc, err := objstore.ReencodeDataset(ds, segment.FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	cache := segcache.NewObjects(1)
	c := skipper.Options{Mode: skipper.ModeSkipper}.Client(0, enc.Catalog, []skipper.QuerySpec{spec, spec})
	c.SegCache, c.KeepResults = cache, true
	res, err := (&skipper.Cluster{Clients: []*skipper.Client{c}, Store: enc.Store}).Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range res.Clients[0].PerQuery {
		if err := lattice.EqualRows(q.Results, want); err != nil {
			t.Fatalf("query %s over an evicting cache: %v", q.QueryID, err)
		}
	}
	if st := cache.Stats(); st.Evicted < 2 || st.Leases != 0 {
		t.Fatalf("want every query to evict its first arrival's entry and no lease left out: %+v", st)
	}
}

// cancelAfter is a context that reads as canceled from its n-th Err on:
// a cancellation that lands at the same arrival on every run.
type cancelAfter struct {
	context.Context
	n atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestLeasesReturnedOnEveryExit: a run returns its leases however it ends
// — failed by a dead device, canceled mid-query, or failed over to a
// replica (on MJoin, whose GETs are in flight when the device dies). The
// shared cache holds the whole footprint, so every entry the run leased is
// still resident and counted by Stats.Leases.
func TestLeasesReturnedOnEveryExit(t *testing.T) {
	p := newProbe(t)
	dead := &faults.Plan{Seed: 7, CrashAt: 15 * time.Second} // no restart
	for _, tc := range []struct {
		name  string
		modes []skipper.Mode
		fleet skipper.FleetSpec
		ctx   context.Context
		check func(*skipper.RunResult, error) error
	}{
		{"failed", modes, skipper.FleetSpec{Faults: dead}, nil, func(_ *skipper.RunResult, err error) error {
			if err == nil {
				return errors.New("the run survived a dead device without a replica")
			}
			return nil
		}},
		{"canceled", modes, skipper.FleetSpec{}, &cancelAfter{Context: context.Background()}, func(_ *skipper.RunResult, err error) error {
			if !errors.Is(err, context.Canceled) {
				return errors.New("the run was not canceled")
			}
			return nil
		}},
		{"failed over", modes[1:], skipper.FleetSpec{N: 2, Replication: layout.ReplicateFull, Faults: dead}, nil, func(res *skipper.RunResult, err error) error {
			if err != nil {
				return err
			}
			for _, cs := range res.Clients {
				if cs.Failovers > 0 {
					return nil
				}
			}
			return errors.New("no failover")
		}},
	} {
		for _, mode := range tc.modes {
			t.Run(tc.name+"/"+mode.String(), func(t *testing.T) {
				if ca, ok := tc.ctx.(*cancelAfter); ok {
					ca.n.Store(12)
				}
				cell := p.cell
				cell.Mode, cell.Fleet = mode, tc.fleet
				cl := p.cluster(cell, lattice.Tenants)
				cl.Clients[0].Ctx = tc.ctx
				res, err := cl.Run()
				if err := tc.check(res, err); err != nil {
					t.Fatal(err)
				}
				if st := cl.SharedCache.Stats(); st.Inserted == 0 || st.Leases != 0 {
					t.Fatalf("want entries leased and every lease returned: %+v", st)
				}
			})
		}
	}
}

// TestConcurrentQueriesShareATenantCache: two queries served at once to
// one tenant read one segment cache, small enough that each evicts entries
// the other still reads. Both return the oracle's rows on every round, and
// no lease is left out. Under -race, a memo recycled while the other query
// reads its views is a reported race.
func TestConcurrentQueriesShareATenantCache(t *testing.T) {
	p := newProbe(t)
	cache := segcache.NewObjects(2)
	var wg sync.WaitGroup
	errs := make([]error, len(modes))
	for i, mode := range modes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 3 {
				cell := p.cell
				cell.Mode, cell.SharedCache = mode, 0
				cl := p.cluster(cell, 1)
				cl.Clients[0].SegCache = cache
				res, err := cl.Run()
				if err == nil {
					err = lattice.CheckRows(res, p.want)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Evicted == 0 || st.Hits == 0 || st.Leases != 0 {
		t.Fatalf("want hits, evictions and no lease left out: %+v", st)
	}
}
