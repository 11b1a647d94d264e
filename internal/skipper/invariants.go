package skipper

import (
	"fmt"
	"time"
)

// InvariantError names the identity a run violated, so harness self-tests
// can require that a doctored result fails for the reason they planted.
type InvariantError struct {
	// Name is the identity's short name: "device-conservation",
	// "demand-ledger", "prefetch-ledger", "mjoin-requests",
	// "prefetch-useful", "processing", "cache-hits" or "cache-leases".
	Name string
	// Detail says which tenant/device disagreed and by how much.
	Detail string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("skipper: invariant %s violated: %s", e.Name, e.Detail)
}

func violated(name, format string, args ...any) error {
	return &InvariantError{Name: name, Detail: fmt.Sprintf(format, args...)}
}

// CheckInvariants is the accounting prose of ClientStats as code: every
// GET a client issued is absorbed exactly once — by the segment cache, by
// a staged prefetch, or by a device. It holds for every completed run,
// whatever the engine, format, cache, pipeline, fleet or fault plan;
// the harness applies it to every cell.
//
//   - device-conservation: per device d and tenant t, the GETs d
//     attributes to t equal t's demand GETs routed to d plus the
//     prefetcher's on its behalf. A device that entered a crash window
//     refuses submissions without counting them, so for such a device
//     the identity is suspended in its exact form: the client ledgers
//     may exceed the device's count, by at most its DownErrors in total.
//   - demand-ledger: per client, Σ_d DeviceGets[d] == GetsIssued −
//     CacheHits − PrefetchServed (retries are GETs on both sides).
//   - prefetch-ledger: per client, Σ_d PrefetchDeviceGets[d] ==
//     PrefetchIssued.
//   - mjoin-requests: in skipper mode the state manager's request count
//     (GETs + reissues, the Figure 11 metric) plus the proxy's retries
//     equals GetsIssued.
//   - prefetch-useful: PrefetchUseful ≤ PrefetchIssued.
//   - processing: one processing charge per segment processed. In
//     skipper mode Processing == MJoinPerObject × MJoin.Pipe.Decodes (a
//     dropped arrival is free) and Fuse == 0; in vanilla mode
//     Processing / VanillaPerObject == Fuse / FusePerObject, one
//     processing charge per fetch that paid FUSE.
//   - cache-hits: the shared cache's hit count grew by exactly the cache
//     hits of the clients that used it.
//   - cache-leases: no lease is out on the shared cache once the run is
//     over: every client returned what it leased, on every exit.
func (r *RunResult) CheckInvariants() error {
	for d, st := range r.Devices {
		refused := 0
		for _, cs := range r.Clients {
			ledger := cs.DeviceGets[d] + cs.PrefetchDeviceGets[d]
			seen := st.GetsByTenant[cs.Tenant]
			if seen != ledger && (st.Crashes == 0 || seen > ledger) {
				return violated("device-conservation", "device %d tenant %d: device saw %d GETs, client ledgers say %d (demand %d + prefetch %d)",
					d, cs.Tenant, seen, ledger, cs.DeviceGets[d], cs.PrefetchDeviceGets[d])
			}
			refused += ledger - seen
		}
		if refused > st.DownErrors {
			return violated("device-conservation", "device %d: %d submissions unaccounted for, but only %d refused while down", d, refused, st.DownErrors)
		}
	}
	for _, cs := range r.Clients {
		demand, prefetch := 0, 0
		for _, n := range cs.DeviceGets {
			demand += n
		}
		for _, n := range cs.PrefetchDeviceGets {
			prefetch += n
		}
		if want := cs.GetsIssued - cs.CacheHits - cs.PrefetchServed; demand != want {
			return violated("demand-ledger", "tenant %d: %d demand GETs routed to devices != issued %d - cache hits %d - prefetch served %d",
				cs.Tenant, demand, cs.GetsIssued, cs.CacheHits, cs.PrefetchServed)
		}
		if prefetch != cs.PrefetchIssued {
			return violated("prefetch-ledger", "tenant %d: %d prefetch GETs routed to devices != prefetch issued %d",
				cs.Tenant, prefetch, cs.PrefetchIssued)
		}
		if cs.Mode == ModeSkipper && cs.MJoin.Requests+cs.Retries != cs.GetsIssued {
			return violated("mjoin-requests", "tenant %d: mjoin requests %d + retries %d != issued %d",
				cs.Tenant, cs.MJoin.Requests, cs.Retries, cs.GetsIssued)
		}
		if cs.PrefetchUseful > cs.PrefetchIssued {
			return violated("prefetch-useful", "tenant %d: prefetch useful %d > issued %d",
				cs.Tenant, cs.PrefetchUseful, cs.PrefetchIssued)
		}
		segs, per, fuse := cs.MJoin.Pipe.Decodes, MJoinPerObject, time.Duration(0)
		if cs.Mode == ModeVanilla {
			segs, per, fuse = int(cs.Fuse/FusePerObject), VanillaPerObject, FusePerObject
		}
		if cs.Processing != per*time.Duration(segs) || cs.Fuse != fuse*time.Duration(segs) {
			return violated("processing", "tenant %d: processing %v and fuse %v are not %d charges of %v and %v",
				cs.Tenant, cs.Processing, cs.Fuse, segs, per, fuse)
		}
	}
	if r.Cache != nil {
		if got := r.Cache.Hits - r.cacheHitsBefore; got != r.sharedHits {
			return violated("cache-hits", "shared cache counted %d hits, its clients %d", got, r.sharedHits)
		}
		if r.Cache.Leases != 0 {
			return violated("cache-leases", "%d leases still out on the shared cache after the run", r.Cache.Leases)
		}
	}
	return nil
}
