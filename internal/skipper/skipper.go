// Package skipper ties the pieces of the Skipper architecture together
// (Figure 6): database clients (one per VM/tenant), the client proxy that
// tags GET requests with query identifiers and mediates between the MJoin
// state manager and the CSD, and a Cluster harness that runs several
// tenants concurrently against one shared device and gathers per-client
// timing — the setup of every experiment in §5.
package skipper

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/csd"
	"repro/internal/engine"
	"repro/internal/mjoin"
	"repro/internal/segcache"
	"repro/internal/segment"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/vtime"
)

// Mode selects the execution engine of a client.
type Mode uint8

const (
	// ModeVanilla is the classical pull-based engine: one synchronous
	// GET per segment, in plan order.
	ModeVanilla Mode = iota
	// ModeSkipper is the MJoin-based out-of-order engine: all GETs
	// upfront, execution driven by arrival order.
	ModeSkipper
)

func (m Mode) String() string {
	switch m {
	case ModeVanilla:
		return "vanilla"
	case ModeSkipper:
		return "skipper"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// ParseMode resolves an engine name as the CLIs spell it. Unknown names
// are an error — a typo must not silently select an engine.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "vanilla":
		return ModeVanilla, nil
	case "skipper":
		return ModeSkipper, nil
	}
	return 0, fmt.Errorf("skipper: unknown engine %q (want vanilla or skipper)", name)
}

// The virtual processing-cost calibration of Table 3, per 1 GB object. The
// proxy charges them to the client's process: FUSE and vanilla on every
// segment the pull engine fetches, MJoin on every arrival the query's
// stream will decode.
const (
	// VanillaPerObject is the pull engine's per-segment processing cost
	// (407 s / 57 objects ≈ 7.14 s).
	VanillaPerObject = 7140 * time.Millisecond
	// MJoinPerObject is the MJoin per-arrival cost (433 s / 57 ≈ 7.6 s;
	// ≈6% above vanilla).
	MJoinPerObject = 7600 * time.Millisecond
	// FusePerObject is the FUSE interposition overhead on the vanilla
	// path only (15.75 s / 57 ≈ 276 ms).
	FusePerObject = 276 * time.Millisecond
)

// QuerySpec is one query a client runs: an MJoin query plus an optional
// post-join shaping stage (aggregation etc.) applied to the join output.
type QuerySpec struct {
	Name string
	// Join defines relations, local filters and join conditions; both
	// engines execute exactly this logical query.
	Join *mjoin.Query
	// Shape, if non-nil, wraps the join output (vanilla) or the MJoin
	// result rows (skipper) with the final operators.
	Shape func(input engine.Iterator) engine.Iterator
	// Bound is the join output schema Shape was bound against, which a run
	// checks the join's output against before it applies Shape; nil stands
	// for the output schema of the plan Join.Validate compiled.
	Bound *tuple.Schema
}

// SchemaError reports a join whose output is not the schema its query's
// shaping stage was bound against: applied, the shape would read whatever
// columns sit at the places it bound.
type SchemaError struct {
	Query string
	// Bound and Got render the two schemas, names and kinds.
	Bound, Got string
}

func (e *SchemaError) Error() string {
	return fmt.Sprintf("skipper: query %s: the join outputs %s, but its shape was bound against %s", e.Query, e.Got, e.Bound)
}

// Shaped applies the spec's shaping stage to it, the spec's join, once it
// has checked that the join outputs the names and kinds Shape was bound
// against; a spec without a Shape returns it unchanged.
func (spec QuerySpec) Shaped(it engine.Iterator) (engine.Iterator, error) {
	if spec.Shape == nil {
		return it, nil
	}
	bound := spec.Bound
	if bound == nil {
		var err error
		if bound, err = spec.Join.Validate(); err != nil {
			return nil, err
		}
	}
	if got := it.Schema(); !slices.Equal(got.Cols, bound.Cols) {
		return nil, &SchemaError{Query: spec.Name, Bound: bound.String(), Got: got.String()}
	}
	return spec.Shape(it), nil
}

// ClientStats is the per-client timing record used by the experiments.
type ClientStats struct {
	Tenant int
	Mode   Mode
	// Start/Finish bound the whole workload (all queries).
	Start, Finish time.Duration
	// PerQuery holds one entry per executed query, in order.
	PerQuery []QueryRun
	// Processing accumulates virtual compute charges.
	Processing time.Duration
	// Fuse accumulates FUSE overhead charges (vanilla only).
	Fuse time.Duration
	// StallIntervals are the periods the client spent blocked waiting
	// for data from the CSD.
	StallIntervals []csd.Interval
	// GetsIssued counts GET requests (including MJoin reissues). Requests
	// served by the shared segment cache are included; subtract CacheHits
	// for the device-visible traffic.
	GetsIssued int
	// CacheHits counts GETs served from the shared segment cache without
	// touching the device: GetsIssued - CacheHits equals the GETs the CSD
	// actually received from this client.
	CacheHits int
	// SegmentsSkipped counts segment requests the statistics subsystem
	// (zone maps + Bloom filters) avoided across the workload — fetches
	// that would have been issued without data skipping.
	SegmentsSkipped int
	// BytesFetched / BytesDecoded / BytesSkippedByProjection /
	// BytesMaterialized account the scan-side decode work against
	// encoded (lazily decoded) stores: total encoded size of the
	// segments scanned, the block bytes actually decoded, the block
	// bytes projection pushdown left untouched, and the logical size of
	// the values materialized into batches. All zero over in-memory
	// (never-encoded) stores.
	BytesFetched             int64
	BytesDecoded             int64
	BytesSkippedByProjection int64
	BytesMaterialized        int64
	// Rows is the total result row count across queries.
	Rows int64
	// MJoin aggregates state-manager statistics (skipper mode).
	MJoin mjoin.Stats
	// PrefetchIssued counts GETs the prefetcher sent to the device on
	// this client's behalf; PrefetchServed counts demand requests served
	// from staged prefetch deliveries instead of the device; and
	// PrefetchUseful counts distinct prefetched objects a query actually
	// consumed (staged or via a cache hit on a prefetched entry). The
	// device-visible GET count of a client is
	// GetsIssued - CacheHits - PrefetchServed + PrefetchIssued.
	PrefetchIssued int
	PrefetchServed int
	PrefetchUseful int
	// DeviceGets and PrefetchDeviceGets are the per-device ledgers of a
	// device fleet: DeviceGets[d] counts the demand GETs (first requests
	// and retries) this client submitted to device d, and
	// PrefetchDeviceGets[d] the prefetcher's GETs on its behalf. GET
	// conservation holds per device: device d's GetsByTenant[tenant]
	// equals DeviceGets[d] + PrefetchDeviceGets[d], except that a
	// submission refused by a device inside a crash window counts here
	// but not at the device (RunResult.CheckInvariants states the exact
	// form). Nil when no GET was routed.
	DeviceGets         map[int]int
	PrefetchDeviceGets map[int]int
	// Failovers counts recoveries that re-requested an object from a live
	// replica on another device instead of backing off against the device
	// that failed it. Each failover also counts in Retries.
	Failovers int
	// TransientFaults and CorruptDeliveries count the retryable faults
	// this client observed on the demand path; Retries counts the
	// re-requests the proxy issued in response (each also counts in
	// GetsIssued — GET conservation holds per attempt); RetryBackoff is
	// the virtual time spent waiting between attempts. All zero when the
	// device runs without a fault plan.
	TransientFaults   int
	CorruptDeliveries int
	Retries           int
	RetryBackoff      time.Duration
	// Pipe is the host-side decode accounting: real time the client's
	// scans (vanilla) or arrivals (skipper) spent decoding segments.
	Pipe engine.PipeStats
	// WallElapsed is the real (hardware) time between this client's
	// workload start and finish. Under the cooperative simulation it
	// includes time other processes ran while this client was blocked;
	// per-cluster, RunResult.Wall is the headline number.
	WallElapsed time.Duration
}

// QueryRun records one query execution.
type QueryRun struct {
	Name          string
	QueryID       string
	Start, Finish time.Duration
	Rows          int
	// Results holds the full result rows when Client.KeepResults is set;
	// nil otherwise.
	Results []tuple.Row
}

// Elapsed returns the client's total workload time.
func (s *ClientStats) Elapsed() time.Duration { return s.Finish - s.Start }

// addDeviceGet records one demand GET submitted to device d.
func (s *ClientStats) addDeviceGet(d int) {
	if s.DeviceGets == nil {
		s.DeviceGets = make(map[int]int)
	}
	s.DeviceGets[d]++
}

// addPrefetchDeviceGet records one prefetch GET submitted to device d.
func (s *ClientStats) addPrefetchDeviceGet(d int) {
	if s.PrefetchDeviceGets == nil {
		s.PrefetchDeviceGets = make(map[int]int)
	}
	s.PrefetchDeviceGets[d]++
}

// Stalled sums the stall intervals.
func (s *ClientStats) Stalled() time.Duration {
	var d time.Duration
	for _, iv := range s.StallIntervals {
		d += iv.To - iv.From
	}
	return d
}

// Options are a client's execution settings, the ones every experiment of
// §5.1 varies: the engine, the MJoin buffer, data skipping, prefetch and
// fault recovery. The zero value is the library default: the vanilla
// engine, the query's footprint as the MJoin buffer, data skipping on, no
// prefetch and DefaultRetryPolicy. MJoin always runs as the paper fixes
// it (mjoin.DefaultConfig): MaxProgress eviction, subplan pruning on.
// lattice.Cell, server.Config and cliflags.Run embed Options, and
// Options.Client builds every client they run.
type Options struct {
	// Mode selects the execution engine.
	Mode Mode
	// CacheObjects is the MJoin buffer capacity in objects (skipper mode);
	// 0 means the query's footprint, every object it may request. The
	// paper expresses it in GB; with 1 GB objects the numbers coincide.
	CacheObjects int
	// NoStatsPruning turns zone-map/Bloom data skipping off. On (the zero
	// value), scan specs carrying a stats.Pruner skip proven result-free
	// segments before any GET is issued, in both modes. Query results
	// are identical either way; only storage traffic changes.
	NoStatsPruning bool
	// PrefetchBytes, when positive, runs a scheduler-aware prefetcher for
	// the client (prefetch.go) and bounds its outstanding data —
	// transfers in flight plus staged-but-unconsumed deliveries — in
	// nominal object bytes; with the paper's 1 GB objects, 2e9 keeps two
	// objects ahead of demand. Query results are byte-identical with
	// prefetch on or off; only storage timing changes.
	PrefetchBytes int64
	// Retry overrides the proxy's fault-recovery policy; nil uses
	// DefaultRetryPolicy. The policy only engages when a delivery carries
	// a retryable fault or a checksum failure — against a clean device it
	// never runs, so the default is always safe.
	Retry *RetryPolicy
}

// Validate rejects settings no run can use: an unknown engine, a negative
// MJoin buffer or prefetch budget, a malformed retry policy.
func (o Options) Validate() error {
	if o.Mode != ModeVanilla && o.Mode != ModeSkipper {
		return fmt.Errorf("skipper: unknown mode %d", o.Mode)
	}
	if o.CacheObjects < 0 {
		return fmt.Errorf("skipper: MJoin cache %d objects < 0", o.CacheObjects)
	}
	if o.PrefetchBytes < 0 {
		return fmt.Errorf("skipper: prefetch budget %d bytes < 0", o.PrefetchBytes)
	}
	if o.Retry != nil {
		return o.Retry.Validate()
	}
	return nil
}

// Client makes the tenant's client with these settings, running the
// queries over the catalog. The caller sets what is its own: a private
// segment cache, a context, a trace, KeepResults.
func (o Options) Client(tenant int, cat *catalog.Catalog, queries []QuerySpec) *Client {
	return &Client{
		Tenant: tenant, Catalog: cat, Queries: queries,
		Mode: o.Mode, CacheObjects: o.CacheObjects, NoStatsPruning: o.NoStatsPruning,
		PrefetchBytes: o.PrefetchBytes, Retry: o.Retry,
	}
}

// Client is one database instance (one VM) bound to a tenant's catalog.
// The settings it shares with Options mean what they mean there.
type Client struct {
	Tenant int
	// Mode: see Options.Mode.
	Mode    Mode
	Catalog *catalog.Catalog
	Queries []QuerySpec
	// CacheObjects: see Options.CacheObjects.
	CacheObjects int
	// NoStatsPruning: see Options.NoStatsPruning.
	NoStatsPruning bool
	// SegCache, when non-nil, is this client's private segment cache: the
	// proxy serves cache-resident objects without a device GET and admits
	// device deliveries on the way back. It overrides the cluster's
	// SharedCache for this client. Query results are byte-identical with
	// and without a cache; only storage traffic and timing change.
	SegCache *segcache.Cache
	// PrefetchBytes: see Options.PrefetchBytes.
	PrefetchBytes int64
	// Retry: see Options.Retry.
	Retry *RetryPolicy
	// Ctx, when non-nil, bounds the client's execution in real time: once
	// the context is canceled or its deadline passes, the workload aborts
	// with an error wrapping ctx.Err() at the next query boundary or
	// segment arrival. The serving layer threads per-query deadlines
	// through here. Cancellation observes the usual cleanup: the
	// prefetcher is stopped and the device drained, exactly as on any
	// other client error.
	Ctx context.Context
	// QTrace, when non-nil, receives hierarchical spans for this client's
	// queries: a root span per query with execute, prefetch-disclosure,
	// per-segment fetch/decode and stall spans nested under it, stamped
	// with both wall and virtual clocks where the code owns a vtime proc.
	// nil (the default) records nothing and costs one branch per hook.
	QTrace *trace.QueryTrace
	// KeepResults retains every query's full result rows in the PerQuery
	// records — the hook the differential harnesses use to compare runs
	// byte for byte. Off by default: result sets can be large.
	KeepResults bool

	stats ClientStats
}

// Stats returns the client's record after the run.
func (c *Client) Stats() *ClientStats { return &c.stats }

// queryID names the client's qi-th query: the tag its GETs, demand and
// prefetch alike, carry to the device's rank scheduler.
func (c *Client) queryID(qi int) string {
	return "t" + strconv.Itoa(c.Tenant) + "." + c.Queries[qi].Name + "#" + strconv.Itoa(qi)
}

// ctxErr reports the client's cancellation state (nil without a Ctx).
func (c *Client) ctxErr() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// proxy is the client proxy daemon (§4.3): it owns the reply channel,
// tags requests with the query id, counts GETs, and records stalls. GETs
// are routed through the fleet's DeviceChooser — one device in the
// classic testbed, per-placement (replica-aware) in a multi-device
// cluster. When a segment cache is configured it sits between the
// engines and the devices: requests are consulted against the cache
// first (hits are delivered immediately at zero device cost) and device
// deliveries are admitted into the cache on the way back, so later
// queries — of this tenant or, with a cluster-shared cache, of any
// tenant — reuse the transferred bytes.
type proxy struct {
	fl     *DeviceChooser
	tenant int
	stats  *ClientStats
	cache  *segcache.Cache
	reply  *vtime.Chan[csd.Delivery]
	proc   *vtime.Proc
	query  string
	// ctx, when non-nil, is the client's real-time cancellation signal:
	// NextArrival fail-stops the query once it fires, so a canceled or
	// deadline-expired query releases the engine at its next arrival
	// instead of running the workload to completion.
	ctx context.Context
	// join, when non-nil, is the running query's MJoin stream: an arrival
	// it still needs costs MJoinPerObject (set by runSkipper, cleared by
	// beginQuery). It is always stream, the proxy's one MJoin stream,
	// which each skipper-mode query restarts (mjoin.Stream.Reset).
	join, stream *mjoin.Stream
	// pf, when non-nil, is the client's prefetch daemon: demand requests
	// consult its staged deliveries before touching the device, and cache
	// hits on prefetched entries are attributed to it.
	pf *prefetcher
	// tr, when non-nil, receives stall spans from NextArrival. The proxy
	// always runs on its owning proc, so spans carry both clocks.
	tr *trace.QueryTrace
	// retry is the fault-recovery bookkeeping: the active policy plus the
	// per-query attempt counts and budget (reset by beginQuery).
	retry retryState
	// reqs, batches and batchOrder are Request's working storage: the GETs
	// of one call, the same per device id, and the devices in order of
	// first appearance. A device copies what it is submitted, so the next
	// call writes over them; all three are empty between calls.
	reqs       []csd.Request
	batches    [][]*csd.Request
	batchOrder []int
	// leases are the memoized segments the cache handed this run, leased
	// until returnLeases: the run may read their columns as views until it
	// ends. From leaseLists, on the run's first lease.
	leases *[]*segment.Segment

	// In a run kernel, the proxy also carries its client's process: the
	// kernel, the run's client, the process name for the tenant and the
	// process function, bound once (see fleetRun).
	kernel *fleetRun
	client *Client
	name   string
	run    func(*vtime.Proc)
}

var leaseLists = sync.Pool{New: func() any { return new([]*segment.Segment) }}

// lease leases a segment the cache handed out for the rest of the run.
func (px *proxy) lease(seg *segment.Segment) *segment.Segment {
	if seg.Lease() {
		if px.leases == nil {
			px.leases = leaseLists.Get().(*[]*segment.Segment)
		}
		*px.leases = append(*px.leases, seg)
	}
	return seg
}

// returnLeases ends the run's leases, on every exit of the run: what the
// cache dropped meanwhile goes back to the working-memory pool.
func (px *proxy) returnLeases() {
	if px.leases == nil {
		return
	}
	for _, seg := range *px.leases {
		seg.Unlease()
	}
	clear(*px.leases)
	*px.leases = (*px.leases)[:0]
	leaseLists.Put(px.leases)
	px.leases = nil
}

func newProxy(sim *vtime.Sim, fl *DeviceChooser, tenant int, stats *ClientStats) *proxy {
	return &proxy{
		fl:      fl,
		tenant:  tenant,
		stats:   stats,
		reply:   newReply(sim, tenant),
		retry:   retryState{policy: defaultRetryPolicy},
		batches: make([][]*csd.Request, fl.numDevices()),
	}
}

// newReply makes the tenant's reply channel.
func newReply(sim *vtime.Sim, tenant int) *vtime.Chan[csd.Delivery] {
	return vtime.NewChan[csd.Delivery](sim, "proxy.t"+strconv.Itoa(tenant)+".reply", 1<<20)
}

// start readies the proxy for client c's run on process p; its reply
// channel, scratch and MJoin stream are kept from its last run.
func (px *proxy) start(p *vtime.Proc, c *Client, shared *segcache.Cache) {
	px.stats, px.proc, px.ctx, px.tr = &c.stats, p, c.Ctx, c.QTrace
	px.retry.policy = retryPolicy(c.Retry)
	if px.cache = c.SegCache; px.cache == nil {
		px.cache = shared
	}
}

// release drops what the proxy held of its run, once the run is over.
func (px *proxy) release() {
	px.client, px.stats, px.proc, px.ctx, px.tr, px.cache, px.pf, px.join = nil, nil, nil, nil, nil, nil, nil, nil
}

// beginQuery names the query for request tagging and resets the
// per-query retry caps and stream.
func (px *proxy) beginQuery(queryID string) {
	px.query = queryID
	px.join = nil
	px.retry.beginQuery()
}

// Request implements mjoin.Source: issue tagged GETs for a batch,
// serving cache-resident objects locally. Cache hits are enqueued on the
// reply channel ahead of any device delivery — arrival order is the
// out-of-order engine's input, so this only reorders, never loses, a
// delivery, and the vanilla path requests one object at a time. Misses
// fan out per device: each GET goes to the replica the chooser picks,
// batched per device in first-appearance order so per-device arrival
// order matches the request order.
func (px *proxy) Request(objs []segment.ObjectID) {
	if cap(px.reqs) < len(objs) {
		px.reqs = make([]csd.Request, 0, len(objs)) // never regrown in a call: the pointers stay put
	}
	for _, id := range objs {
		if px.cache != nil {
			if seg, ok := px.cache.Get(id); ok {
				px.stats.CacheHits++
				if px.pf != nil && px.pf.markUsed(id) {
					px.stats.PrefetchUseful++
				}
				px.reply.Send(px.proc, csd.Delivery{Object: id, Seg: px.lease(seg)})
				continue
			}
		}
		if px.pf != nil {
			if seg, ok := px.pf.takeStaged(id); ok {
				px.stats.PrefetchServed++
				px.stats.PrefetchUseful++
				px.reply.Send(px.proc, csd.Delivery{Object: id, Seg: seg})
				continue
			}
		}
		d := px.fl.Choose(id)
		px.stats.addDeviceGet(d)
		if len(px.batches[d]) == 0 {
			px.batchOrder = append(px.batchOrder, d)
		}
		px.reqs = append(px.reqs, csd.Request{Object: id, QueryID: px.query, Tenant: px.tenant, Reply: px.reply})
		px.batches[d] = append(px.batches[d], &px.reqs[len(px.reqs)-1])
	}
	for _, d := range px.batchOrder {
		px.fl.device(d).Submit(px.proc, px.batches[d]...)
		px.batches[d] = px.batches[d][:0]
	}
	px.reqs, px.batchOrder = px.reqs[:0], px.batchOrder[:0]
	px.stats.GetsIssued += len(objs)
}

// NextArrival implements mjoin.Source: block until one object arrives,
// recording the stall and admitting device deliveries into the cache. An
// arrival the query's MJoin stream will decode (one a pending subplan still
// needs) is charged MJoinPerObject before it is returned; one the stream
// drops is free.
// This is also where fault recovery lives: a retryable error delivery or
// a checksum-failed payload triggers backoff and a re-request (see
// retry.go), and the loop keeps receiving — the replacement arrives on
// the same reply channel, possibly after other objects, so callers still
// see exactly one clean arrival per requested object.
func (px *proxy) NextArrival() (*segment.Segment, error) {
	for {
		if px.ctx != nil {
			if err := px.ctx.Err(); err != nil {
				return nil, fmt.Errorf("tenant %d: query canceled awaiting arrival: %w", px.tenant, err)
			}
		}
		from := px.proc.Now()
		var wallFrom time.Time
		if px.tr.Enabled() {
			wallFrom = time.Now()
		}
		d := px.reply.Recv(px.proc)
		if to := px.proc.Now(); to > from {
			px.stats.StallIntervals = append(px.stats.StallIntervals, csd.Interval{From: from, To: to})
			if px.tr.Enabled() {
				px.tr.EmitVirt(trace.CatStall, px.query, wallFrom, from, to)
			}
		}
		class, cause := classify(d)
		if class == deliveryFatal && px.canFailover(d) {
			// A permanent device crash is not fatal to the query when a
			// live replica holds the object: recover like a retryable
			// fault, with the retry path failing over to the replica.
			class = deliveryRetryable
		}
		switch class {
		case deliveryOK:
			seg := d.Seg
			if px.cache != nil {
				if cached := px.cache.Put(d.Object, d.Seg); cached != nil {
					seg = px.lease(cached) // the cache's copy: this decode fills it
				}
			}
			if px.join != nil && px.join.PendingCount(d.Object) > 0 {
				px.charge(&px.stats.Processing, MJoinPerObject)
			}
			return seg, nil
		case deliveryFatal:
			return nil, cause
		default:
			if err := px.retryDelivery(d, class, cause); err != nil {
				return nil, err
			}
			// Retry in flight; keep receiving.
		}
	}
}

// Fetch implements engine.Fetcher, the vanilla path: one GET, wait for it,
// then charge the FUSE interposition and the per-segment processing. A
// failed fetch is free.
func (px *proxy) Fetch(id segment.ObjectID) (*segment.Segment, error) {
	px.Request([]segment.ObjectID{id})
	seg, err := px.NextArrival()
	if err != nil {
		return nil, err
	}
	px.charge(&px.stats.Fuse, FusePerObject)
	px.charge(&px.stats.Processing, VanillaPerObject)
	return seg, nil
}

// charge sleeps d on the client's process and adds it to the account.
func (px *proxy) charge(account *time.Duration, d time.Duration) {
	px.proc.Sleep(d)
	*account += d
}
