package skipper

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"time"

	"repro/internal/csd"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/mjoin"
	"repro/internal/segcache"
	"repro/internal/segment"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/vtime"
)

// Cluster runs a set of database clients against one or more shared
// CSDs on a virtual-time simulation — the paper's testbed of §5.1 (five
// PostgreSQL VMs against one Swift-based emulated CSD), generalized to
// a device fleet for the scale-out experiments.
type Cluster struct {
	Clients []*Client
	Layout  layout.Policy
	// Fleet describes the devices the clients share. The zero value is
	// the classic testbed: one default device, no faults.
	Fleet FleetSpec
	// Store backs every tenant's objects.
	Store map[segment.ObjectID]*segment.Segment
	// SharedCache, when non-nil, is one segment cache shared by every
	// client of the cluster: bytes transferred for one tenant's query are
	// served to any later request for the same object — across queries,
	// reissue cycles and tenants — without touching the device. A client
	// with its own SegCache opts out of the shared instance. Segments are
	// immutable, so cross-tenant sharing never changes query results.
	SharedCache *segcache.Cache
}

// RunResult aggregates a cluster run.
type RunResult struct {
	Clients []*ClientStats
	// CSD is the device's statistics — summed across the fleet when the
	// cluster ran more than one device (csd.Stats.Plus).
	CSD csd.Stats
	// Devices holds each device's own statistics, indexed by device id.
	// One entry for a single-device cluster (then identical to CSD).
	Devices []csd.Stats
	// Faults holds what each device's injector actually injected, indexed
	// by device id; nil when the fleet ran without a fault plan.
	Faults   []faults.Stats
	Makespan time.Duration
	// Wall is the real (hardware) time the simulation took end to end.
	// Virtual quantities (Makespan, stalls) model the storage hardware;
	// Wall measures the host's actual compute.
	Wall time.Duration
	// Cache is the shared segment cache's final statistics; nil when the
	// cluster ran without a SharedCache. Clients with private SegCache
	// instances report through their own caches instead.
	Cache *segcache.Stats
	// sharedHits is what Cache.Hits must have grown by during the run:
	// the cache hits of the clients that used the shared cache.
	// cacheHitsBefore is the cache's hit count when the run began.
	sharedHits, cacheHitsBefore int64
}

// Run executes every client's workload to completion — NewFleet, one run
// on it, then Fleet.Close — and returns the gathered statistics; it
// writes nothing into the cluster. When a client's workload fails, the
// run's error comes with the result gathered up to the failure — device,
// fault and client counters of a query that, say, exhausted its retries
// are as real as a successful one's. A nil result means the run never
// started or the simulation itself broke.
func (cl *Cluster) Run() (*RunResult, error) {
	if len(cl.Clients) == 0 {
		return nil, fmt.Errorf("skipper: cluster has no clients")
	}
	for _, c := range cl.Clients {
		if c.Retry == nil {
			continue
		}
		if err := c.Retry.Validate(); err != nil {
			return nil, fmt.Errorf("skipper: tenant %d: %w", c.Tenant, err)
		}
	}
	f, err := NewFleet(cl.Fleet, cl.Layout, cl.Store, cl.Clients)
	if err != nil {
		return nil, err
	}
	res, err := f.run(cl.Clients, cl.SharedCache, cl.Fleet.Device.Trace)
	f.Close()
	return res, err
}

// fleetRun is a run kernel: a simulator, the fleet's devices on it, the
// chooser over them and one proxy per client — everything a cluster run
// builds. A Fleet keeps the kernels of its clean runs on an idle list: a
// run takes one (or builds one), resets it, runs it and puts it back, so a
// served query restarts the last query's kernel at virtual time 0 instead
// of building one. The simulator is a vtime kernel: the goroutines of a
// run's processes park on their records for the next run instead of
// exiting, and a kernel no run will take again must stop them — Fleet.run
// stops the kernel of a failed run, Fleet.Close the idle ones, and the
// garbage collector the kernels of a fleet dropped without Close.
type fleetRun struct {
	sim   *vtime.Sim
	devs  []*csd.CSD
	fl    *DeviceChooser
	store map[segment.ObjectID]*segment.Segment
	done  *vtime.Chan[int]
	// proxies[i] serves clients[i], kept with its reply channel, scratch,
	// MJoin stream, process name and process function.
	proxies []*proxy
	// coordinate is the coordinator process's function, bound once.
	coordinate func(*vtime.Proc)

	// What the current run reads: its clients, the shared cache, and the
	// first client's failure.
	clients []*Client
	shared  *segcache.Cache
	err     error
}

// newKernel builds an empty kernel over the fleet's devices.
func (f *Fleet) newKernel() *fleetRun {
	r := &fleetRun{sim: vtime.NewKernel(), store: f.store, devs: make([]*csd.CSD, len(f.assigns))}
	// Nothing the parked goroutines reach points back at r.
	runtime.AddCleanup(r, (*vtime.Sim).Stop, r.sim)
	for i, da := range f.assigns {
		cfg := f.dev
		cfg.ID = i
		r.devs[i] = csd.New(r.sim, cfg, f.store, da)
	}
	r.fl = newDeviceChooser(r.devs, f.place)
	r.done = vtime.NewChan[int](r.sim, "cluster.done", 1<<20)
	r.coordinate = r.coordinator
	return r
}

// takeKernel takes an idle kernel, preferring one whose first proxy last
// served the first client's tenant (its names are made), or builds one.
func (f *Fleet) takeKernel(clients []*Client) *fleetRun {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.idle)
	if n == 0 {
		return f.newKernel()
	}
	k := n - 1
	for i, r := range f.idle {
		if len(clients) > 0 && len(r.proxies) > 0 && r.proxies[0].tenant == clients[0].Tenant {
			k = i
		}
	}
	r := f.idle[k]
	f.idle = slices.Delete(f.idle, k, k+1)
	return r
}

// putKernel returns the kernel of a clean run to the idle list, dropping
// what it held of the run.
func (f *Fleet) putKernel(r *fleetRun) {
	for _, px := range r.proxies[:len(r.clients)] {
		px.release()
	}
	r.clients, r.shared = nil, nil
	f.mu.Lock()
	f.idle = append(f.idle, r)
	f.mu.Unlock()
}

// run takes a kernel and resets it for the clients — the simulator, each
// device with a fresh injector and the lane as its recorder, one proxy per
// client — runs the simulation and gathers the result. Only a kernel whose
// simulation ended with every process finished and no client failed goes
// back to the idle list; any other is stopped and dropped.
func (f *Fleet) run(clients []*Client, shared *segcache.Cache, lane *trace.QueryTrace) (*RunResult, error) {
	r := f.takeKernel(clients)
	r.sim.Reset()
	r.done.Reset()
	r.clients, r.shared, r.err = clients, shared, nil
	var injs []*faults.Injector
	for i, dev := range r.devs {
		cfg := f.dev
		cfg.ID, cfg.Trace = i, lane
		if f.plan != nil {
			injs = append(injs, deviceInjector(*f.plan, i))
			cfg.Faults = injs[i]
		}
		dev.Reset(cfg)
		dev.Start()
	}
	if n := len(clients) - len(r.proxies); n > 0 {
		r.proxies = slices.Grow(r.proxies, n)
	}
	for i, c := range clients {
		if i == len(r.proxies) {
			r.proxies = append(r.proxies, r.newClientProxy(c.Tenant))
		}
		px := r.proxies[i]
		px.bind(c)
		r.sim.Spawn(px.name, px.run)
	}
	r.sim.Spawn("cluster.coordinator", r.coordinate)
	res := &RunResult{}
	if shared != nil {
		res.cacheHitsBefore = shared.Stats().Hits
	}
	wallStart := time.Now()
	if err := r.sim.Run(); err != nil {
		r.sim.Stop()
		return nil, fmt.Errorf("skipper: simulation: %w", err)
	}
	res.Makespan, res.Wall = r.sim.Now(), time.Since(wallStart)
	res.Devices = make([]csd.Stats, len(r.devs))
	for i, dev := range r.devs {
		res.Devices[i] = dev.Stats()
	}
	for _, inj := range injs {
		res.Faults = append(res.Faults, inj.Stats())
	}
	if len(r.devs) == 1 {
		res.CSD = res.Devices[0]
	} else {
		for _, st := range res.Devices {
			res.CSD = res.CSD.Plus(st)
		}
	}
	if shared != nil {
		st := shared.Stats()
		res.Cache = &st
	}
	res.Clients = make([]*ClientStats, len(clients))
	for i, c := range clients {
		res.Clients[i] = &c.stats
		// The device cannot observe requests that data skipping never
		// issued; fold the clients' accounting into the device stats so
		// served and avoided traffic read side by side.
		res.CSD.GetsAvoided += c.stats.SegmentsSkipped
		if c.SegCache == nil {
			res.sharedHits += int64(c.stats.CacheHits)
		}
	}
	err := r.err
	if err == nil {
		f.putKernel(r)
	} else {
		r.sim.Stop()
	}
	return res, err
}

// newClientProxy makes the kernel's proxy for a client of the tenant,
// with its process name and function.
func (r *fleetRun) newClientProxy(tenant int) *proxy {
	px := newProxy(r.sim, r.fl, tenant, nil)
	px.kernel, px.name = r, "client.t"+strconv.Itoa(tenant)
	px.run = px.process
	return px
}

// bind gives the proxy this run's client c: the tenant it last served
// finds its reply channel emptied, another tenant gets its own channel and
// process name.
func (px *proxy) bind(c *Client) {
	px.client = c
	if px.tenant == c.Tenant {
		px.reply.Reset()
		return
	}
	px.tenant, px.reply = c.Tenant, newReply(px.kernel.sim, c.Tenant)
	px.name = "client.t" + strconv.Itoa(c.Tenant)
}

// process is the client's simulated process: run the workload, record the
// first failure, report to the coordinator.
func (px *proxy) process(p *vtime.Proc) {
	r := px.kernel
	if err := r.runClient(p, px.client, px); err != nil && r.err == nil {
		r.err = err
	}
	r.done.Send(p, px.client.Tenant)
}

// coordinator waits for every client, then shuts the devices down.
func (r *fleetRun) coordinator(p *vtime.Proc) {
	for range r.clients {
		r.done.Recv(p)
	}
	for _, dev := range r.devs {
		dev.Shutdown(p)
	}
}

// runClient executes one client's query sequence. With c.PrefetchBytes
// set it also owns the client's prefetch daemon, told to stop when the
// workload ends, even on error; it exits once its in-flight transfers
// drain, so the simulation always terminates.
func (r *fleetRun) runClient(p *vtime.Proc, c *Client, px *proxy) error {
	c.stats = ClientStats{Tenant: c.Tenant, Mode: c.Mode, Start: p.Now()}
	wallStart := time.Now()
	defer func() { c.stats.WallElapsed = time.Since(wallStart) }()
	px.start(p, c, r.shared)
	defer px.returnLeases()
	if c.PrefetchBytes > 0 {
		px.pf = newPrefetcher(r.sim, r.fl, px.cache, c)
		r.sim.Spawn("prefetch.t"+strconv.Itoa(c.Tenant), px.pf.run)
		defer px.pf.stop(p)
	}
	enqueued := 0
	for qi, spec := range c.Queries {
		if err := c.ctxErr(); err != nil {
			return fmt.Errorf("skipper: tenant %d: workload canceled before query %s: %w", c.Tenant, spec.Name, err)
		}
		queryID := c.queryID(qi)
		px.beginQuery(queryID)
		qspan := c.QTrace.BeginPhaseVirt(trace.CatQuery, queryID, p.Now())
		if px.pf != nil {
			// Disclose this query's and the next query's demand to the
			// prefetcher (and, through its tagged GETs, to the scheduler).
			var pfWall time.Time
			pfVirt := p.Now()
			if c.QTrace.Enabled() {
				pfWall = time.Now()
			}
			for ; enqueued <= qi+1 && enqueued < len(c.Queries); enqueued++ {
				px.pf.enqueue(p, candidatesFor(c, enqueued, r.store))
			}
			if c.QTrace.Enabled() {
				c.QTrace.EmitVirt(trace.CatPrefetch, "disclose", pfWall, pfVirt, p.Now())
			}
		}
		qStart := p.Now()
		espan := c.QTrace.BeginPhaseVirt(trace.CatExecute, c.Mode.String(), qStart)
		var rows []tuple.Row
		var err error
		switch c.Mode {
		case ModeVanilla:
			rows, err = runVanilla(px, c, spec)
		case ModeSkipper:
			rows, err = runSkipper(px, c, spec)
		default:
			err = fmt.Errorf("skipper: unknown mode %d", c.Mode)
		}
		c.QTrace.EndPhaseVirt(espan, p.Now())
		if err != nil {
			c.QTrace.EndPhaseVirt(qspan, p.Now())
			return fmt.Errorf("skipper: tenant %d query %s: %w", c.Tenant, spec.Name, err)
		}
		qr := QueryRun{
			Name: spec.Name, QueryID: queryID,
			Start: qStart, Finish: p.Now(), Rows: len(rows),
		}
		if c.KeepResults {
			qr.Results = rows
		}
		c.stats.PerQuery = append(c.stats.PerQuery, qr)
		c.QTrace.EndPhaseVirt(qspan, p.Now())
		c.stats.Rows += int64(len(rows))
	}
	c.stats.Finish = p.Now()
	return nil
}

// runVanilla executes the query on the pull-based engine over synchronous
// per-segment GETs. The plan (scans, joins and the shaping stage) is
// drained batch-at-a-time through the engine's batched core; the storage
// access pattern — one GET per segment in plan order — is unchanged. The
// whole plan runs on the client's goroutine, as the vtime simulation
// requires of the scans (and thus of the proxy's GETs and charges).
func runVanilla(px *proxy, c *Client, spec QuerySpec) ([]tuple.Row, error) {
	ctx := &engine.Ctx{Fetch: px, Trace: c.QTrace}
	it, scans, err := pullPlan(ctx, spec.Join, !c.NoStatsPruning)
	if err != nil {
		return nil, err
	}
	if it, err = spec.Shaped(it); err != nil {
		return nil, err
	}
	rows, err := engine.Collect(it)
	if err != nil {
		return nil, err
	}
	// Each scan counts the fetches its Pruner actually avoided during
	// the drain — exact even when a LIMIT stops the pipeline before a
	// scan reaches its tail segments — and the decode bytes it spent or
	// skipped against lazily decoded (encoded-format) stores.
	for i := range scans {
		s := &scans[i]
		c.stats.SegmentsSkipped += s.SegmentsSkipped()
		sb := s.Bytes()
		c.stats.BytesFetched += sb.Fetched
		c.stats.BytesDecoded += sb.Decoded
		c.stats.BytesSkippedByProjection += sb.SkippedByProjection
		c.stats.BytesMaterialized += sb.Materialized
		c.stats.Pipe.Add(s.PipeStats())
	}
	return rows, nil
}

// runSkipper executes the query with the cache-aware MJoin over the
// push-based proxy, which charges the stream's arrivals.
func runSkipper(px *proxy, c *Client, spec QuerySpec) ([]tuple.Row, error) {
	cacheSize := c.CacheObjects
	if cacheSize <= 0 {
		cacheSize = len(spec.Join.Objects())
	}
	cfg := mjoin.DefaultConfig(cacheSize)
	cfg.StatsPruning, cfg.Trace = !c.NoStatsPruning, c.QTrace
	if px.stream == nil {
		px.stream = new(mjoin.Stream)
	}
	if err := px.stream.Reset(spec.Join, cfg, px); err != nil {
		return nil, err
	}
	join := px.stream
	px.join = join
	// The MJoin output chunks stream into the shaping stage as they are
	// completed, so post-join filters, aggregation and ORDER BY run
	// batch-at-a-time in skipper mode too; rows exist only for what the
	// query returns.
	it, err := spec.Shaped(join)
	if err != nil {
		return nil, err
	}
	rows, err := engine.Collect(it)
	if err != nil {
		return nil, err
	}
	st := join.Stats()
	c.stats.MJoin = addStats(c.stats.MJoin, st)
	c.stats.Pipe.Add(st.Pipe)
	c.stats.SegmentsSkipped += st.ObjectsSkipped
	c.stats.BytesFetched += st.BytesFetched
	c.stats.BytesDecoded += st.BytesDecoded
	c.stats.BytesSkippedByProjection += st.BytesSkippedByProjection
	c.stats.BytesMaterialized += st.BytesMaterialized
	return rows, nil
}

func addStats(a, b mjoin.Stats) mjoin.Stats {
	a.Pipe.Add(b.Pipe)
	return mjoin.Stats{
		Requests:                 a.Requests + b.Requests,
		Cycles:                   a.Cycles + b.Cycles,
		Arrivals:                 a.Arrivals + b.Arrivals,
		Evictions:                a.Evictions + b.Evictions,
		SubplansTotal:            a.SubplansTotal + b.SubplansTotal,
		SubplansExecuted:         a.SubplansExecuted + b.SubplansExecuted,
		SubplansPruned:           a.SubplansPruned + b.SubplansPruned,
		ObjectsSkipped:           a.ObjectsSkipped + b.ObjectsSkipped,
		SubplansSkipped:          a.SubplansSkipped + b.SubplansSkipped,
		ResultRows:               a.ResultRows + b.ResultRows,
		BytesFetched:             a.BytesFetched + b.BytesFetched,
		BytesDecoded:             a.BytesDecoded + b.BytesDecoded,
		BytesSkippedByProjection: a.BytesSkippedByProjection + b.BytesSkippedByProjection,
		BytesMaterialized:        a.BytesMaterialized + b.BytesMaterialized,
		PinnedCycles:             a.PinnedCycles + b.PinnedCycles,
		Pipe:                     a.Pipe,
	}
}

// BuildPullPlan translates an mjoin.Query into the classical engine's
// left-deep plan: sequential scans — each carrying its relation's Cols and
// Filter and handing on the same narrow, filtered leg MJoin caches — joined
// by blocking binary hash joins, each carrying only the columns read above
// it (mjoin.Stage), pulled in plan order. Relation Pruners are attached to
// the scans (data skipping on).
func BuildPullPlan(ctx *engine.Ctx, q *mjoin.Query) (engine.Iterator, error) {
	return BuildPullPlanPruned(ctx, q, true)
}

// BuildPullPlanPruned is BuildPullPlan with data skipping made explicit:
// prune=false leaves the relation Pruners off the scans, so every
// segment is fetched — the pre-statistics behaviour. Legs and joins are
// the query's compiled plan (mjoin.Query.Validate), not re-derived.
func BuildPullPlanPruned(ctx *engine.Ctx, q *mjoin.Query, prune bool) (engine.Iterator, error) {
	it, _, err := pullPlan(ctx, q, prune)
	return it, err
}

// pullPlan is BuildPullPlanPruned, also returning the plan's scans in
// relation order. The scans are one allocation, the joins another.
func pullPlan(ctx *engine.Ctx, q *mjoin.Query, prune bool) (engine.Iterator, []engine.SeqScan, error) {
	legs, joins, err := q.Plan()
	if err != nil {
		return nil, nil, err
	}
	scans, ops := make([]engine.SeqScan, len(legs)), make([]engine.HashJoin, len(joins))
	var it engine.Iterator
	for i, rel := range q.Relations {
		scans[i] = engine.LegScan(ctx, rel.Table, legs[i])
		if prune {
			scans[i].Pruner = rel.Pruner
		}
		if i == 0 {
			it = &scans[0]
			continue
		}
		ops[i-1] = engine.ShapedJoin(it, &scans[i], joins[i-1])
		it = &ops[i-1]
	}
	return it, scans, nil
}
