package skipper

import (
	"errors"
	"strconv"

	"repro/internal/csd"
	"repro/internal/segcache"
	"repro/internal/segment"
	"repro/internal/vtime"
)

// This file implements the scheduler-aware prefetcher (Client.PrefetchBytes):
// a per-client simulated process that issues GETs for the upcoming queries'
// unpruned, cache-missing segments while the current query executes, under
// a bounded in-flight byte budget. Prefetching helps twice over:
//
//   - It discloses future demand to the device scheduler. Prefetch GETs
//     carry the real upcoming query id, so the rank-based policy sees the
//     work earlier and can batch group switches across present and future
//     queries — a virtual-time (makespan) win.
//   - It overlaps transfer with compute. A segment whose transfer started
//     during the previous query is resident (segment cache) or staged
//     (no cache) by the time the demand path asks for it.
//
// Prefetch never changes results: a prefetched delivery is the same
// immutable segment the demand GET would have fetched, and the device
// coalesces a prefetch racing its own demand GET onto one transfer (one
// BytesServed charge). Stats pruning is honoured at enqueue time — a
// segment the relation's Pruner proves result-free is never prefetched.

// pfCandidate is one object the prefetcher may fetch ahead of demand.
type pfCandidate struct {
	id      segment.ObjectID
	queryID string // the real upcoming query, disclosed to the scheduler
	bytes   int64  // nominal transfer size
}

// pfCmd is the client-to-prefetcher control message.
type pfCmd struct {
	stop bool
	objs []pfCandidate
}

// prefetcher is the per-client prefetch daemon. All state is touched
// only from simulated processes (the prefetcher's own proc and the
// client proc), which the cooperative vtime kernel never runs
// concurrently, so the maps need no locking.
type prefetcher struct {
	tenant int
	budget int64
	fl     *DeviceChooser
	cache  *segcache.Cache
	stats  *ClientStats

	cmd   *vtime.Chan[pfCmd]
	reply *vtime.Chan[csd.Delivery]

	queue  []pfCandidate
	queued map[segment.ObjectID]bool // queue membership, for dedup

	inflight      map[segment.ObjectID]int64 // issued, not yet delivered
	inflightBytes int64
	// staged holds deliveries when the client has no segment cache; the
	// demand path consumes them via takeStaged. With a cache, deliveries
	// are admitted there instead and staged stays empty.
	staged      map[segment.ObjectID]*segment.Segment
	stagedBytes int64
	// admitted marks cache entries that came from prefetch, so a later
	// demand cache hit can be attributed (PrefetchUseful).
	admitted map[segment.ObjectID]bool

	stopped bool
	// failed is set on the first unrecoverable fatal error delivery
	// (device fail-stop, or a permanent crash with no live replica of the
	// object elsewhere): the prefetcher stops issuing and lets the demand
	// path surface the error. Retryable faults — and permanent crashes
	// the fleet can fail over — do not set it: the affected object is
	// simply dropped and left to the demand path, whose retry policy owns
	// recovery.
	failed bool
}

func newPrefetcher(sim *vtime.Sim, fl *DeviceChooser, cache *segcache.Cache, c *Client) *prefetcher {
	return &prefetcher{
		tenant:   c.Tenant,
		budget:   c.PrefetchBytes,
		fl:       fl,
		cache:    cache,
		stats:    &c.stats,
		cmd:      vtime.NewChan[pfCmd](sim, "prefetch.t"+strconv.Itoa(c.Tenant)+".cmd", len(c.Queries)+4),
		reply:    vtime.NewChan[csd.Delivery](sim, "prefetch.t"+strconv.Itoa(c.Tenant)+".reply", 1<<20),
		queued:   make(map[segment.ObjectID]bool),
		inflight: make(map[segment.ObjectID]int64),
		staged:   make(map[segment.ObjectID]*segment.Segment),
		admitted: make(map[segment.ObjectID]bool),
	}
}

// enqueue asks the prefetcher to consider the given candidates; called
// from the client proc. The buffered command channel never blocks for a
// well-formed client (one enqueue per query plus one stop).
func (pf *prefetcher) enqueue(p *vtime.Proc, objs []pfCandidate) {
	pf.cmd.Send(p, pfCmd{objs: objs})
}

// stop tells the prefetcher to wind down; it exits once its in-flight
// transfers have been delivered (the device always answers every GET —
// with data, or with an error after a fail-stop or during shutdown), so
// the simulation never strands the prefetch process.
func (pf *prefetcher) stop(p *vtime.Proc) {
	pf.cmd.Send(p, pfCmd{stop: true})
}

// run is the prefetch daemon loop. Structure: drain control and
// delivery channels without blocking, issue what the budget allows,
// then block on whichever channel can actually wake it — deliveries
// while transfers are in flight, commands otherwise. Every path makes
// progress toward exit once stop has been received.
func (pf *prefetcher) run(p *vtime.Proc) {
	for {
		for {
			cmd, ok := pf.cmd.TryRecv(p)
			if !ok {
				break
			}
			pf.applyCmd(cmd)
		}
		for {
			d, ok := pf.reply.TryRecv(p)
			if !ok {
				break
			}
			pf.complete(d)
		}
		if pf.stopped && len(pf.inflight) == 0 {
			return
		}
		if !pf.stopped && !pf.failed {
			pf.issue(p)
		}
		if len(pf.inflight) > 0 {
			pf.complete(pf.reply.Recv(p))
		} else {
			pf.applyCmd(pf.cmd.Recv(p))
		}
	}
}

func (pf *prefetcher) applyCmd(cmd pfCmd) {
	if cmd.stop {
		pf.stopped = true
		return
	}
	for _, c := range cmd.objs {
		if pf.queued[c.id] {
			continue
		}
		if _, inf := pf.inflight[c.id]; inf {
			continue
		}
		if _, st := pf.staged[c.id]; st {
			continue
		}
		pf.queued[c.id] = true
		pf.queue = append(pf.queue, c)
	}
}

// issue starts as many prefetch transfers as the byte budget allows,
// preferring candidates the device can serve without a group switch.
func (pf *prefetcher) issue(p *vtime.Proc) {
	affinity := pf.fl.affinity
	for len(pf.queue) > 0 {
		i := pickCandidate(pf.queue, affinity)
		cand := pf.queue[i]
		// Residency first: a segment already in cache (or staged) needs no
		// transfer regardless of budget.
		if pf.cache != nil && pf.cache.Contains(cand.id) {
			pf.dropQueued(i)
			continue
		}
		if pf.inflightBytes+pf.stagedBytes+cand.bytes > pf.budget {
			if pf.inflightBytes+pf.stagedBytes > 0 {
				return // budget busy; retry when something completes or drains
			}
			// The object alone exceeds the budget and nothing is
			// outstanding: it can never fit. Drop it rather than spin.
			pf.dropQueued(i)
			continue
		}
		pf.dropQueued(i)
		pf.inflight[cand.id] = cand.bytes
		pf.inflightBytes += cand.bytes
		pf.stats.PrefetchIssued++
		d := pf.fl.Choose(cand.id)
		pf.stats.addPrefetchDeviceGet(d)
		pf.fl.device(d).Submit(p, &csd.Request{
			Object: cand.id, QueryID: cand.queryID, Tenant: pf.tenant, Reply: pf.reply,
		})
	}
}

// pickCandidate returns the queue index to issue next: the first candidate
// some live replica can serve without a group switch (affinity 2) if any,
// else the first one on a scheduler's predicted next group (affinity 1),
// else the FIFO head.
func pickCandidate(queue []pfCandidate, affinity func(segment.ObjectID) int) int {
	next := -1
	for i, cand := range queue {
		switch affinity(cand.id) {
		case 2:
			return i
		case 1:
			if next < 0 {
				next = i
			}
		}
	}
	return max(next, 0)
}

// dropQueued removes queue[i], preserving order.
func (pf *prefetcher) dropQueued(i int) {
	delete(pf.queued, pf.queue[i].id)
	pf.queue = append(pf.queue[:i], pf.queue[i+1:]...)
}

// complete folds one delivery into prefetcher state: admit to the
// segment cache when there is one, stage otherwise. A fatal error
// delivery (device fail-stop) quiesces the prefetcher — the demand path
// will observe the same error and abort the query. A retryable fault or
// a checksum-failed payload just releases the slot: prefetch is an
// optimization, so the object is left for the demand path, whose retry
// policy owns recovery; nothing corrupt is ever admitted or staged.
func (pf *prefetcher) complete(d csd.Delivery) {
	b, ok := pf.inflight[d.Object]
	if !ok {
		return
	}
	delete(pf.inflight, d.Object)
	pf.inflightBytes -= b
	if d.Err != nil {
		if csd.IsRetryable(d.Err) {
			pf.stats.TransientFaults++
			return
		}
		var dde *csd.DeviceDownError
		if errors.As(d.Err, &dde) {
			if _, ok := pf.fl.Failover(d.Object, d.Device); ok {
				// One device's permanent crash is not fatal to the fleet:
				// the object has a live replica the demand path fails over
				// to. Release the slot and keep prefetching elsewhere.
				return
			}
		}
		pf.failed = true
		pf.queue, pf.queued = nil, make(map[segment.ObjectID]bool)
		return
	}
	if err := d.Seg.VerifyChecksum(); err != nil {
		pf.stats.CorruptDeliveries++
		return
	}
	if pf.cache != nil {
		pf.cache.Put(d.Object, d.Seg)
		pf.admitted[d.Object] = true
		return
	}
	pf.staged[d.Object] = d.Seg
	pf.stagedBytes += b
}

// takeStaged hands a staged delivery to the demand path, freeing its
// budget slot. Called from the client proc.
func (pf *prefetcher) takeStaged(id segment.ObjectID) (*segment.Segment, bool) {
	seg, ok := pf.staged[id]
	if !ok {
		return nil, false
	}
	delete(pf.staged, id)
	pf.stagedBytes -= seg.NominalBytes
	return seg, true
}

// markUsed attributes a demand cache hit to prefetch, once per
// prefetched object. Called from the client proc.
func (pf *prefetcher) markUsed(id segment.ObjectID) bool {
	if pf.admitted[id] {
		delete(pf.admitted, id)
		return true
	}
	return false
}

// candidatesFor builds the prefetch candidate list of one upcoming
// query: every segment of every relation, in plan order, minus the
// segments stats pruning proves result-free (those are never requested
// by the demand path either).
func candidatesFor(c *Client, qi int, store map[segment.ObjectID]*segment.Segment) []pfCandidate {
	queryID := c.queryID(qi)
	var out []pfCandidate
	for _, id := range c.Queries[qi].Join.Requested(!c.NoStatsPruning) {
		if seg, ok := store[id]; ok {
			out = append(out, pfCandidate{id: id, queryID: queryID, bytes: seg.NominalBytes})
		}
	}
	return out
}
