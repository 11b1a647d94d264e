// Package csd emulates a Cold Storage Device: a MAID array in which only
// one disk group is spun up at a time. Accessing an object in the loaded
// group costs a bandwidth-bound transfer; accessing any other group first
// costs a group switch (spin-down + spin-up, ~10 s). The emulator mirrors
// the paper's Swift middleware: it maintains object→group metadata, adds
// group-switch delays, serializes each tenant's transfers on a per-tenant
// stream, and schedules switches with a pluggable policy (§4.4). Pending
// requests for the same object — across queries and tenants — are
// coalesced into a single transfer whose delivery fans out to every
// requester (Stats.GetsCoalesced), lifting the paper's observation that
// FCFS device policies "cannot merge requests across queries" into the
// device itself.
package csd

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/segment"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Delivery is one object handed back to a client.
type Delivery struct {
	Object segment.ObjectID
	Seg    *segment.Segment
	// Device is the id of the device that produced the delivery
	// (Config.ID). Clients in a multi-device fleet use it to attribute
	// faults to the right replica — a DeviceDownError from device 1 says
	// nothing about device 0's health.
	Device int
	// Err, when non-nil, reports that the device failed the request
	// instead of serving it (e.g. a scheduler contract violation). Seg is
	// nil in that case.
	Err error
}

// SchedulerContractError reports a Scheduler.NextGroup return value that
// violates the interface contract: a group with no pending requests
// (including -1 or an unknown group id) or the already-loaded group.
// Before this validation a misbehaving policy silently corrupted the run
// — the device would spin the switch loop or panic deep in dispatch; now
// the run fails fast with this error delivered to every waiting client.
type SchedulerContractError struct {
	// Scheduler is the policy's Name().
	Scheduler string
	// Returned is the offending group id.
	Returned int
	// Loaded is the group that was loaded when NextGroup was consulted.
	Loaded int
	// Reason describes the violated clause.
	Reason string
}

func (e *SchedulerContractError) Error() string {
	return fmt.Sprintf("csd: scheduler %s violated its contract: returned group %d (loaded %d): %s",
		e.Scheduler, e.Returned, e.Loaded, e.Reason)
}

// Request is a tagged GET: the client proxy attaches the query identifier
// so the scheduler can be workload-aware (§4.3). The device copies what it
// is submitted into requests of its own, which it recycles once delivered.
type Request struct {
	Object  segment.ObjectID
	QueryID string
	Tenant  int
	Reply   *vtime.Chan[Delivery]

	seq         int           // arrival order, assigned by the CSD
	arrivedAt   time.Duration // virtual arrival time
	arrivedWall time.Time     // wall arrival time; only taken when spans are recorded
	coalesced   bool          // riding another request's transfer
	// followers are later pending requests for the same object coalesced
	// onto this one: the transfer runs once and the delivery fans out to
	// every follower's reply channel at the same completion time.
	followers []*Request
}

// Interval is a half-open virtual-time interval [From, To).
type Interval struct {
	From, To time.Duration
}

// Stats aggregates what the device did during a run.
type Stats struct {
	GroupSwitches int
	ObjectsServed int
	// BytesServed sums the nominal (paper-scale, 1 GB) object sizes the
	// transfer model charges for.
	BytesServed int64
	// PayloadBytesServed sums the actual encoded sizes of the served
	// objects — the wire footprint of the segment format in use. Zero
	// when the store holds in-memory (never-encoded) segments.
	PayloadBytesServed int64
	GetsReceived       int
	// GetsCoalesced counts requests that were merged onto an earlier
	// request for the same object instead of paying their own transfer —
	// whether both were pending in the same dispatch round or the later
	// one arrived while the earlier one's transfer was already in
	// flight: N same-object requests cost one transfer (one BytesServed
	// charge) and N deliveries, N-1 of them coalesced.
	GetsCoalesced   int
	GetsByTenant    map[int]int
	ServedByQuery   map[string]int
	SwitchIntervals []Interval // when the device was mid-switch
	// GetsAvoided counts segment requests that were never issued because
	// the clients' statistics subsystem (zone maps + Bloom filters)
	// skipped them. The device cannot observe these itself; the cluster
	// harness fills the field in after a run so device traffic and
	// avoided traffic can be reported together.
	GetsAvoided int
	// TransientFaults / StalledTransfers / CorruptDeliveries count what
	// the fault injector actually surfaced: transfers failed with a
	// TransientError (no byte charge), transfers delayed by a stall, and
	// deliveries served with a bit-flipped payload (charged — the bytes
	// did travel). A corrupt fault against an in-memory segment degrades
	// to a transient failure (there are no wire bytes to flip) and counts
	// there.
	TransientFaults   int
	StalledTransfers  int
	CorruptDeliveries int
	// Crashes / Restarts count whole-device crash windows entered and
	// exited. DownErrors counts requests refused (or in-flight transfers
	// voided) because the device was down.
	Crashes    int
	Restarts   int
	DownErrors int
}

// Plus returns the element-wise sum of two Stats — counters added, maps
// merged, switch intervals concatenated in time order. The cluster
// harness uses it to fold a fleet's per-device statistics into the
// aggregate view single-device callers already consume.
func (s Stats) Plus(o Stats) Stats {
	out := s
	out.GroupSwitches += o.GroupSwitches
	out.ObjectsServed += o.ObjectsServed
	out.BytesServed += o.BytesServed
	out.PayloadBytesServed += o.PayloadBytesServed
	out.GetsReceived += o.GetsReceived
	out.GetsCoalesced += o.GetsCoalesced
	out.GetsAvoided += o.GetsAvoided
	out.TransientFaults += o.TransientFaults
	out.StalledTransfers += o.StalledTransfers
	out.CorruptDeliveries += o.CorruptDeliveries
	out.Crashes += o.Crashes
	out.Restarts += o.Restarts
	out.DownErrors += o.DownErrors
	out.GetsByTenant = mergeCounts(s.GetsByTenant, o.GetsByTenant)
	out.ServedByQuery = mergeCounts(s.ServedByQuery, o.ServedByQuery)
	if len(o.SwitchIntervals) > 0 {
		merged := make([]Interval, 0, len(s.SwitchIntervals)+len(o.SwitchIntervals))
		merged = append(merged, s.SwitchIntervals...)
		merged = append(merged, o.SwitchIntervals...)
		sort.Slice(merged, func(i, j int) bool { return merged[i].From < merged[j].From })
		out.SwitchIntervals = merged
	}
	return out
}

// mergeCounts sums two count maps into a fresh map (nil when both are).
func mergeCounts[K comparable](a, b map[K]int) map[K]int {
	if a == nil && b == nil {
		return nil
	}
	out := make(map[K]int, len(a)+len(b))
	for k, v := range a {
		out[k] += v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}

// Config parametrizes the device.
type Config struct {
	// ID names the device within a fleet. Single-device clusters leave it
	// 0; the cluster harness stamps ids [0, N) so deliveries, spans and
	// process names say which device they came from.
	ID int
	// GroupSwitch is the spin-down/spin-up latency of a group switch
	// (Pelican: 8 s; the paper's experiments default to 10 s).
	GroupSwitch time.Duration
	// Bandwidth is the per-tenant-stream transfer rate in bytes/second.
	Bandwidth float64
	// Scheduler picks the next group (default: RankBased with K=1).
	Scheduler Scheduler
	// Order arranges requests within a loaded group for one tenant
	// (default: SemanticRoundRobin).
	Order OrderKind
	// StreamsPerTenant is the number of concurrent transfers per tenant
	// (default 1, the paper's serialized middleware). Raising it
	// implements §5.2.1's outlook — "by parallelizing the servicing of
	// requests within a group, we can reduce transfer time
	// substantially" — at the cost of strict per-tenant delivery order.
	StreamsPerTenant int
	// Trace, when non-nil, is the device recorder: a switch span per group
	// switch, a transfer span per request from arrival to delivery and a
	// down span per crash window, each labeled with this device's ID (a
	// fleet shares one recorder). Nil records nothing and formats nothing.
	Trace *trace.QueryTrace
	// Faults, when non-nil, injects the configured fault plan into every
	// transfer: transient failures, stalls, corrupt payloads and the
	// crash window. Nil means a perfect device. Note that a plan with a
	// crash schedule keeps the virtual clock running at least to the
	// crash (and restart) time — the timers are simulated processes.
	Faults *faults.Injector
}

// DefaultConfig returns the paper's defaults: 10 s switch, 100 MB/s
// effective per-stream bandwidth (≈10 s per 1 GB object, Table 3), the
// rank-based scheduler and semantic in-group ordering.
func DefaultConfig() Config {
	return Config{
		GroupSwitch: 10 * time.Second,
		Bandwidth:   100e6,
		Scheduler:   NewRankBased(1),
		Order:       SemanticRoundRobin,
	}
}

// OrderKind selects the in-group request ordering (§4.4 "What ordering
// within a group?").
type OrderKind uint8

const (
	// SemanticRoundRobin satisfies object requests evenly across the
	// relations of each query (A.1, B.1, C.1, A.2, ...), which lets a
	// cache-limited MJoin execute subplans as data streams in.
	SemanticRoundRobin OrderKind = iota
	// SequentialOrder returns objects in request-arrival order (all of
	// A, then all of B, ...), the pathological ordering for MJoin.
	SequentialOrder
)

// event multiplexes the controller's inputs over one channel (the vtime
// kernel has no select).
type event struct {
	req      *Request // a new GET
	done     bool     // a stream finished a transfer
	shutdown bool
	crash    bool // fault plan: the device crash-stops now
	restart  bool // fault plan: the downtime window ended
}

// CSD is the emulated device. Create with New, then Start it on a
// simulation, send GETs via Submit, and Shutdown when clients are done.
type CSD struct {
	sim    *vtime.Sim
	cfg    Config
	store  map[segment.ObjectID]*segment.Segment
	assign *layout.Assignment

	evCh    *vtime.Chan[event]
	streams map[int]*stream

	// controller state
	loaded int // -1 before first load
	// pending holds the requests waiting for their group to be loaded, as
	// the per-group queues Scheduler.NextGroup takes: a request joins its
	// group's queue on arrival (arrival order within a queue), dispatch
	// takes the loaded group's queue whole, and no empty queue is kept —
	// so len(pending) == 0 means nothing is waiting.
	pending map[int][]*Request
	// spare holds the emptied queues dispatch took, for apply to reuse when
	// a group next gets its first request.
	spare       [][]*Request
	inFlight    int
	arrivalSeq  int
	lastService map[string]int // queryID -> switch count at last service/arrival
	// waitingFn is c.waiting, bound once: a method value made per switch
	// would allocate per switch.
	waitingFn func(queryID string) int
	order     orderScratch
	// inflight indexes the carrier request of every transfer currently
	// queued or running, so a later same-object request can ride along
	// instead of paying a second transfer. The stream worker deletes the
	// entry at transfer completion, before fanning out deliveries; the
	// worker's completion sequence never yields (all its channel sends
	// are buffered), so a follower is either attached while the entry
	// exists — and delivered — or misses it entirely and carries a
	// transfer of its own. No follower can be attached to a carrier that
	// has already delivered.
	inflight map[segment.ObjectID]*Request
	// free holds delivered requests for Submit to copy the next GETs into:
	// a run allocates requests for its peak of outstanding GETs, not for
	// every GET.
	free []*Request
	// fatal, once set, fail-stops the device: every pending and future
	// request is answered with an error delivery instead of data.
	fatal error
	// down marks a crash window: pending and in-flight work fails with a
	// DeviceDownError and new requests are refused until restart (if the
	// plan has one — otherwise the window lasts the rest of the run).
	// downAt/downWall are when it began.
	down     bool
	downAt   time.Duration
	downWall time.Time

	stats Stats
}

// stream carries transfers to one tenant over one or more workers.
type stream struct {
	queue   *vtime.Chan[*Request]
	workers int
}

// New builds a CSD over the given simulator, object store and layout.
func New(sim *vtime.Sim, cfg Config, store map[segment.ObjectID]*segment.Segment, assign *layout.Assignment) *CSD {
	if cfg.GroupSwitch < 0 {
		panic("csd: negative group switch latency")
	}
	if cfg.Bandwidth <= 0 {
		panic("csd: bandwidth must be positive")
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = NewRankBased(1)
	}
	c := &CSD{
		sim:    sim,
		cfg:    cfg,
		store:  store,
		assign: assign,
		evCh:   vtime.NewChan[event](sim, deviceName(cfg.ID)+".events", 1<<20),
		loaded: -1,
	}
	return c
}

// waiting is what Scheduler.NextGroup is given: the switches since the
// query was last serviced (or arrived).
func (c *CSD) waiting(queryID string) int {
	return c.stats.GroupSwitches - c.lastService[queryID]
}

// deviceName renders a device's process-name prefix: "csd" for the
// primary (id 0, the historical single-device name) and "csd<id>"
// beyond it, so a fleet's simulated processes are tellable apart.
func deviceName(id int) string {
	if id == 0 {
		return "csd"
	}
	return fmt.Sprintf("csd%d", id)
}

// Stats returns a copy of the device statistics. Valid after Run.
func (c *CSD) Stats() Stats {
	st := c.stats
	return st
}

// ID returns the device's fleet id (Config.ID).
func (c *CSD) ID() int { return c.cfg.ID }

// Down reports whether the device is inside a crash window. Advisory in
// the same sense as LoadedGroup: exact at the instant of the call,
// stale after the caller's next yield. The fleet's device chooser uses
// it to route around a crashed replica.
func (c *CSD) Down() bool { return c.down }

// Err returns the fatal device error, if any — e.g. a
// *SchedulerContractError from a misbehaving policy. The same error is
// also delivered (as Delivery.Err) to every request the device could not
// serve, so clients normally observe it without polling here.
func (c *CSD) Err() error { return c.fatal }

// LoadedGroup returns the currently spun-up group, or -1 before the
// first load. Advisory: safe to call from any simulated process because
// the cooperative vtime kernel runs exactly one process at a time, but
// the value may change at the caller's next yield. Client-side
// prefetchers use it to aim lookahead GETs at data the device can serve
// without a switch.
func (c *CSD) LoadedGroup() int { return c.loaded }

// PredictNextGroup runs the scheduler's NextGroup policy over the
// current pending set without switching, returning the group the device
// would spin up next — or -1 when nothing is pending, the device is
// fail-stopped, or the policy violates its contract (the real switch
// will fail-stop; the prediction just declines to guess). Advisory in
// the same sense as LoadedGroup: the pending set the real switch sees
// may differ by the time it happens.
func (c *CSD) PredictNextGroup() (int, bool) {
	if c.fatal != nil || len(c.pending) == 0 {
		return -1, false
	}
	next, err := c.nextGroup()
	return next, err == nil
}

// nextGroup asks the scheduler which group to load next. An answer that
// violates the NextGroup contract yields -1 and a *SchedulerContractError.
func (c *CSD) nextGroup() (int, error) {
	next := c.cfg.Scheduler.NextGroup(c.loaded, c.pending, c.waitingFn)
	var reason string
	switch {
	case next == c.loaded:
		reason = "picked the already-loaded group"
	case len(c.pending[next]) == 0:
		reason = "picked a group with no pending requests"
	default:
		return next, nil
	}
	return -1, &SchedulerContractError{
		Scheduler: c.cfg.Scheduler.Name(), Returned: next, Loaded: c.loaded, Reason: reason,
	}
}

// Submit enqueues GET requests. Must be called from a simulated process.
// The device copies each request into one of its own, so the caller may
// reuse its values as soon as Submit returns.
func (c *CSD) Submit(p *vtime.Proc, reqs ...*Request) {
	for _, r := range reqs {
		if _, ok := c.store[r.Object]; !ok {
			panic(fmt.Sprintf("csd: GET for unknown object %v", r.Object))
		}
		var own *Request
		if n := len(c.free); n > 0 {
			own, c.free[n-1], c.free = c.free[n-1], nil, c.free[:n-1]
		} else {
			own = new(Request)
		}
		own.Object, own.QueryID, own.Tenant, own.Reply = r.Object, r.QueryID, r.Tenant, r.Reply
		c.evCh.Send(p, event{req: own})
	}
}

// recycle puts a delivered request, and the followers that rode its
// transfer, on the free list, cleared but for its followers' capacity.
func (c *CSD) recycle(r *Request) {
	for _, f := range r.followers {
		c.recycle(f)
	}
	clear(r.followers)
	*r = Request{followers: r.followers[:0]}
	c.free = append(c.free, r)
}

// Shutdown stops the controller after all in-flight work drains. Clients
// must not Submit afterwards.
func (c *CSD) Shutdown(p *vtime.Proc) {
	c.evCh.Send(p, event{shutdown: true})
}

// Start spawns the controller process — and, when the fault plan has a
// crash schedule, the crash and restart timers. Call once before
// Sim.Run.
func (c *CSD) Start() {
	c.sim.Spawn(deviceName(c.cfg.ID)+".controller", c.controller)
	if c.cfg.Faults == nil {
		return
	}
	plan := c.cfg.Faults.Plan()
	if plan.CrashAt <= 0 {
		return
	}
	c.sim.Spawn(deviceName(c.cfg.ID)+".crashtimer", func(p *vtime.Proc) {
		p.Sleep(plan.CrashAt)
		c.evCh.Send(p, event{crash: true})
	})
	if plan.CrashDowntime > 0 {
		c.sim.Spawn(deviceName(c.cfg.ID)+".restarttimer", func(p *vtime.Proc) {
			p.Sleep(plan.CrashAt + plan.CrashDowntime)
			c.evCh.Send(p, event{restart: true})
		})
	}
}

// willRestart reports whether the fault plan brings a crashed device
// back.
func (c *CSD) willRestart() bool {
	return c.cfg.Faults != nil && c.cfg.Faults.Plan().CrashDowntime > 0
}

// crash enters the crash window: every pending request fails with a
// DeviceDownError, and apply refuses new ones until restart. Transfers
// already in flight fail at their completion instant (the stream worker
// checks c.down) — the device forgot them when it went down.
func (c *CSD) crash(p *vtime.Proc) {
	if c.down || c.fatal != nil {
		return
	}
	c.down, c.downAt = true, p.Now()
	if c.cfg.Trace.Enabled() {
		c.downWall = time.Now()
	}
	c.stats.Crashes++
	restarting := c.willRestart()
	for _, r := range c.takePending() {
		c.stats.DownErrors++
		c.deliver(p, r, Delivery{Err: &DeviceDownError{Object: r.Object, Restarting: restarting}}, "down")
		c.recycle(r)
	}
}

// takePending empties the queues and returns what they held in arrival
// order: a crash or a fail-stop answers every waiting request, oldest
// first.
func (c *CSD) takePending() []*Request {
	var all []*Request
	for _, q := range c.pending {
		all = append(all, q...)
	}
	clear(c.pending)
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	return all
}

// recordDown records the crash window's span, from the crash to now.
func (c *CSD) recordDown(p *vtime.Proc, how string) {
	c.cfg.Trace.EmitVirtDev(trace.CatDown, how, c.downWall, c.downAt, p.Now(), c.cfg.ID)
}

// deliver answers one received request and records its transfer span:
// arrival to now, named by object, tenant and query, then "coalesced" for
// a rider and the outcome for anything but a clean delivery.
func (c *CSD) deliver(p *vtime.Proc, r *Request, d Delivery, outcome string) {
	d.Object, d.Device = r.Object, c.cfg.ID
	r.Reply.Send(p, d)
	if !c.cfg.Trace.Enabled() {
		return
	}
	name := fmt.Sprintf("%v t%d %s", r.Object, r.Tenant, r.QueryID)
	if r.coalesced {
		name += " coalesced"
	}
	if outcome != "" {
		name += " " + outcome
	}
	c.cfg.Trace.EmitVirtDev(trace.CatTransfer, name, r.arrivedWall, r.arrivedAt, p.Now(), c.cfg.ID)
}

// fanOut delivers one transfer's result to its carrier and every
// coalesced follower at the same instant.
func (c *CSD) fanOut(p *vtime.Proc, r *Request, d Delivery, outcome string) {
	c.deliver(p, r, d, outcome)
	for _, f := range r.followers {
		c.deliver(p, f, d, outcome)
	}
}

// failTransient fails a transfer whose time was spent but whose data
// never arrived: nothing is charged, every requester may retry.
func (c *CSD) failTransient(p *vtime.Proc, r *Request) {
	c.stats.TransientFaults++
	c.fanOut(p, r, Delivery{Err: &TransientError{Object: r.Object, Attempt: c.cfg.Faults.Attempts(r.Object.String())}}, "transient-fault")
}

func (c *CSD) controller(p *vtime.Proc) {
	c.stats.GetsByTenant = make(map[int]int)
	c.stats.ServedByQuery = make(map[string]int)
	shuttingDown := false
	for {
		// Drain everything already queued.
		for {
			ev, ok := c.evCh.TryRecv(p)
			if !ok {
				break
			}
			shuttingDown = c.apply(p, ev) || shuttingDown
		}
		if shuttingDown && len(c.pending) == 0 && c.inFlight == 0 {
			c.stopStreams(p)
			return
		}
		// Dispatch serviceable requests (loaded group) to tenant streams.
		if c.dispatch(p) {
			continue
		}
		if c.inFlight > 0 {
			// Wait for a completion (or new request) before deciding.
			shuttingDown = c.apply(p, c.evCh.Recv(p)) || shuttingDown
			continue
		}
		if len(c.pending) > 0 {
			// Everything pending is on other groups: switch.
			if err := c.switchGroup(p); err != nil {
				c.fail(p, err)
			}
			continue
		}
		if shuttingDown {
			c.stopStreams(p)
			return
		}
		// Idle: block for the next event.
		shuttingDown = c.apply(p, c.evCh.Recv(p)) || shuttingDown
	}
}

// apply folds one event into controller state, returning true on shutdown.
func (c *CSD) apply(p *vtime.Proc, ev event) bool {
	switch {
	case ev.shutdown:
		return true
	case ev.crash:
		c.crash(p)
	case ev.restart:
		if c.down {
			c.down = false
			c.stats.Restarts++
			c.recordDown(p, "crash, restarted")
		}
	case ev.req != nil:
		r := ev.req
		if c.fatal != nil {
			// Fail-stopped device: answer immediately with the error.
			r.Reply.Send(p, Delivery{Object: r.Object, Device: c.cfg.ID, Err: c.fatal})
			c.recycle(r)
			return false
		}
		if c.down {
			// Crashed device: refuse rather than queue, so clients see the
			// window and back off instead of waiting on a dead box.
			c.stats.DownErrors++
			r.Reply.Send(p, Delivery{Object: r.Object, Device: c.cfg.ID, Err: &DeviceDownError{Object: r.Object, Restarting: c.willRestart()}})
			c.recycle(r)
			return false
		}
		if c.pending == nil { // a device that serves no GET makes no maps
			c.streams = make(map[int]*stream)
			c.pending = make(map[int][]*Request)
			c.lastService = make(map[string]int)
			c.inflight = make(map[segment.ObjectID]*Request)
			c.waitingFn = c.waiting
		}
		r.seq = c.arrivalSeq
		c.arrivalSeq++
		r.arrivedAt = p.Now()
		if c.cfg.Trace.Enabled() {
			r.arrivedWall = time.Now()
		}
		if _, seen := c.lastService[r.QueryID]; !seen {
			// A query starts waiting from its arrival (§4.4).
			c.lastService[r.QueryID] = c.stats.GroupSwitches
		}
		g := c.mustGroupOf(r.Object)
		q, queued := c.pending[g]
		if !queued && len(c.spare) > 0 {
			q = c.spare[len(c.spare)-1]
			c.spare = c.spare[:len(c.spare)-1]
		}
		c.pending[g] = append(q, r)
		c.stats.GetsReceived++
		c.stats.GetsByTenant[r.Tenant]++
	case ev.done:
		c.inFlight--
	}
	return false
}

// dispatch hands every pending request on the loaded group to its tenant's
// stream, in the configured in-group order. Duplicate requests for the
// same object — across queries and tenants, whether pending in this round
// or already in flight from an earlier one — are coalesced onto the first
// requester in service order: the object is transferred once (one
// BytesServed charge) and the delivery fans out to every rider at the
// transfer's completion time. Reports whether any request was dispatched.
func (c *CSD) dispatch(p *vtime.Proc) bool {
	if c.loaded < 0 {
		// First load is free: the device is assumed to have the first
		// requested group spun up (the paper's single-client runs see
		// zero switches).
		oldest := -1
		for g, q := range c.pending {
			if oldest < 0 || q[0].seq < c.pending[oldest][0].seq {
				oldest = g
			}
		}
		if oldest < 0 {
			return false
		}
		c.loaded = oldest
	}
	onLoaded, ok := c.pending[c.loaded]
	if !ok {
		return false
	}
	delete(c.pending, c.loaded)
	c.orderRequests(onLoaded)
	for _, r := range onLoaded {
		c.lastService[r.QueryID] = c.stats.GroupSwitches
		c.stats.ServedByQuery[r.QueryID]++
		if carrier, dup := c.inflight[r.Object]; dup {
			carrier.followers = append(carrier.followers, r)
			r.coalesced = true
			c.stats.GetsCoalesced++
			continue
		}
		c.inflight[r.Object] = r
		c.tenantStream(r.Tenant).queue.Send(p, r)
		c.inFlight++
	}
	clear(onLoaded)
	c.spare = append(c.spare, onLoaded[:0])
	return true
}

func (c *CSD) mustGroupOf(id segment.ObjectID) int {
	g, err := c.assign.GroupOf(id)
	if err != nil {
		panic(err)
	}
	return g
}

// switchGroup loads the scheduler's next group and pays the latency; a
// *SchedulerContractError comes back instead of a switch.
func (c *CSD) switchGroup(p *vtime.Proc) error {
	next, err := c.nextGroup()
	if err != nil {
		return err
	}
	from, prev := p.Now(), c.loaded
	var wallFrom time.Time
	if c.cfg.Trace.Enabled() {
		wallFrom = time.Now()
	}
	p.Sleep(c.cfg.GroupSwitch)
	c.loaded = next
	c.stats.GroupSwitches++
	c.stats.SwitchIntervals = append(c.stats.SwitchIntervals, Interval{From: from, To: p.Now()})
	if c.cfg.Trace.Enabled() {
		c.cfg.Trace.EmitVirtDev(trace.CatSwitch, fmt.Sprintf("g%d->g%d", prev, next), wallFrom, from, p.Now(), c.cfg.ID)
	}
	return nil
}

// fail fail-stops the device: the error is recorded and every pending
// request (and, via apply, every future one) receives an error delivery,
// so no client blocks forever on a device that cannot make progress.
// In-flight transfers complete normally.
func (c *CSD) fail(p *vtime.Proc, err error) {
	c.fatal = err
	for _, r := range c.takePending() {
		c.deliver(p, r, Delivery{Err: err}, "fail-stop")
		c.recycle(r)
	}
}

// tenantStream lazily spawns the per-tenant transfer worker(s).
func (c *CSD) tenantStream(tenant int) *stream {
	if s, ok := c.streams[tenant]; ok {
		return s
	}
	s := &stream{
		queue: vtime.NewChan[*Request](c.sim, fmt.Sprintf("%s.stream.t%d", deviceName(c.cfg.ID), tenant), 1<<20),
	}
	c.streams[tenant] = s
	workers := c.cfg.StreamsPerTenant
	if workers < 1 {
		workers = 1
	}
	s.workers = workers
	for w := 0; w < workers; w++ {
		c.sim.Spawn(fmt.Sprintf("%s.stream.t%d.w%d", deviceName(c.cfg.ID), tenant, w), func(p *vtime.Proc) {
			for {
				r := s.queue.Recv(p)
				if r == nil {
					return
				}
				seg := c.store[r.Object]
				d := time.Duration(float64(seg.NominalBytes) / c.cfg.Bandwidth * float64(time.Second))
				var out faults.Outcome
				if c.cfg.Faults != nil {
					out = c.cfg.Faults.Transfer(r.Object.String())
				}
				if out.Stall > 0 {
					c.stats.StalledTransfers++
				}
				p.Sleep(d + out.Stall)
				// Close the ride-along window before fanning out: from here
				// on a new same-object request must pay its own transfer.
				// This sequence runs without yielding (see the inflight
				// field), so no follower can be attached after delivery.
				delete(c.inflight, r.Object)
				riders := 1 + len(r.followers)
				switch {
				case c.down:
					// The device crashed while this transfer was in flight:
					// every rider gets the same error, no byte charge.
					c.stats.DownErrors += riders
					c.fanOut(p, r, Delivery{Err: &DeviceDownError{Object: r.Object, Restarting: c.willRestart()}}, "down")
				case out.Fail:
					c.failTransient(p, r)
				default:
					served, outcome := seg, ""
					if out.Corrupt {
						if served = seg.CorruptedCopy(); served == nil {
							// In-memory segments carry no wire bytes to flip;
							// degrade the fault to a transient failure so the
							// plan still exercises the retry path.
							c.failTransient(p, r)
							break
						}
						outcome = "corrupt"
						c.stats.CorruptDeliveries++
					}
					// One transfer, one byte charge, however many riders.
					// Corrupt bytes traveled, so they are charged like clean
					// ones.
					c.stats.BytesServed += seg.NominalBytes
					c.stats.PayloadBytesServed += seg.EncodedSize()
					c.stats.ObjectsServed += riders
					c.fanOut(p, r, Delivery{Seg: served}, outcome)
				}
				c.recycle(r)
				c.evCh.Send(p, event{done: true})
			}
		})
	}
	return s
}

// stopStreams ends the run: the transfer workers exit, and the span of a
// crash window the device never came back from closes here.
func (c *CSD) stopStreams(p *vtime.Proc) {
	if c.down {
		c.recordDown(p, "crash, never restarted")
	}
	for _, s := range c.streams {
		for w := 0; w < s.workers; w++ {
			s.queue.Send(p, nil)
		}
	}
}

// orderRequests arranges same-group requests, in place, before dispatch.
// Requests of different tenants land on independent streams, so ordering
// only matters within a tenant; SequentialOrder preserves arrival order,
// SemanticRoundRobin serves the queries in order of first appearance and
// interleaves each query's relations evenly (§4.4): A.1, B.1, C.1, A.2, ...
// with the relations too in order of first appearance. That is the order
// of (query, rank of the request within its relation, relation), which is
// what gets sorted; one request is already in it.
func (c *CSD) orderRequests(reqs []*Request) {
	if c.cfg.Order == SequentialOrder || len(reqs) <= 1 {
		return
	}
	o := &c.order
	for _, r := range reqs {
		query := slices.Index(o.queries, r.QueryID)
		if query < 0 {
			query = len(o.queries)
			o.queries = append(o.queries, r.QueryID)
		}
		rel := slices.Index(o.relations, relation{query, r.Object.Table})
		if rel < 0 {
			rel = len(o.relations)
			o.relations = append(o.relations, relation{query, r.Object.Table})
			o.seen = append(o.seen, 0)
		}
		o.keyed = append(o.keyed, keyedRequest{query: query, rank: o.seen[rel], relation: rel, req: r})
		o.seen[rel]++
	}
	slices.SortStableFunc(o.keyed, func(a, b keyedRequest) int {
		return cmp.Or(cmp.Compare(a.query, b.query), cmp.Compare(a.rank, b.rank), cmp.Compare(a.relation, b.relation))
	})
	for i, k := range o.keyed {
		reqs[i] = k.req
	}
	clear(o.keyed) // the scratch must not keep requests alive
	o.queries, o.relations, o.seen, o.keyed = o.queries[:0], o.relations[:0], o.seen[:0], o.keyed[:0]
}

// orderScratch is orderRequests' working storage, kept by the device so a
// dispatch round allocates nothing once the slices have grown.
type orderScratch struct {
	queries   []string   // distinct query ids, in order of first appearance
	relations []relation // distinct (query, table) pairs, likewise
	seen      []int      // requests seen so far per relation
	keyed     []keyedRequest
}

// relation is one table of one query (an index into orderScratch.queries).
type relation struct {
	query int
	table string
}

type keyedRequest struct {
	query, rank, relation int
	req                   *Request
}
