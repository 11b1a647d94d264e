package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/csd"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/layout"
	"repro/internal/mjoin"
	"repro/internal/segcache"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/skipper"
	"repro/internal/sql"
	"repro/internal/stats"
	"repro/internal/tuple"
	"repro/internal/vtime"
	"repro/internal/workload"
)

// Layer probes: each times one package's public entry point in isolation
// on the workload's own data, repeats times, and reports the median. They
// say which layer moved when an end-to-end metric does.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// timeMedian times fn repeats times and returns the median in
// nanoseconds. fn loops inside when one call is too short to time.
func timeMedian(repeats int, fn func() error) (float64, error) {
	samples := make([]float64, 0, repeats)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		samples = append(samples, float64(time.Since(start)))
	}
	return median(samples), nil
}

// mallocsOf counts the heap objects one call of fn allocates.
func mallocsOf(fn func() error) (float64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	err := fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs), err
}

// memSource is an immediate in-memory mjoin.Source: every requested
// object arrives at once, in request order.
type memSource struct {
	store map[segment.ObjectID]*segment.Segment
	queue []*segment.Segment
}

func (s *memSource) Request(objs []segment.ObjectID) {
	for _, id := range objs {
		s.queue = append(s.queue, s.store[id])
	}
}

func (s *memSource) NextArrival() (*segment.Segment, error) {
	if len(s.queue) == 0 {
		return nil, fmt.Errorf("memSource: arrival requested with none pending")
	}
	sg := s.queue[0]
	s.queue = s.queue[1:]
	return sg, nil
}

// drain pulls a plan to exhaustion and returns its row count.
func drain(it engine.Iterator) (int, error) {
	rows, err := engine.Collect(it)
	return len(rows), err
}

// runProbes returns every probe metric by name. gen is one tenant's
// generated dataset, enc its v2 re-encoding.
func runProbes(cfg *config, gen, enc *workload.Dataset) (map[string]float64, error) {
	out := make(map[string]float64)
	n := cfg.scale.probeRepeats
	// probe times fn (which does `per` units of work per call) and stores
	// the median time per unit, divided by div (1 = ns, 1e3 = us, ...).
	probe := func(name string, per int, div float64, fn func() error) error {
		ns, err := timeMedian(n, fn)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		out[name] = ns / float64(per) / div
		return nil
	}

	line := enc.Catalog.MustTable("lineitem")
	schema := line.Schema
	encSeg := enc.Store[line.Objects[0]]
	genSeg := gen.Store[line.Objects[0]]
	rows := genSeg.Rows
	if len(rows) == 0 {
		return nil, fmt.Errorf("probes: lineitem segment 0 is empty")
	}
	// reps makes a per-row probe long enough to time.
	reps := 1 + 200000/len(rows)

	batch := tuple.FromRows(schema, rows)
	var hashes []uint64
	if err := probe("tuple.hash_ns_per_row", reps*len(rows), 1, func() error {
		for i := 0; i < reps; i++ {
			hashes = batch.HashColumns([]int{0}, hashes[:0])
		}
		sink += len(hashes)
		return nil
	}); err != nil {
		return nil, err
	}

	var cd *segment.ColumnData
	decode := func(proj []int) func() error {
		return func() (err error) {
			cd, err = encSeg.DecodeColumns(schema, proj, cd)
			return err
		}
	}
	if err := probe("segment.decode_full_us_per_obj", 1, 1e3, decode(nil)); err != nil {
		return nil, err
	}
	proj3 := []int{schema.MustColIndex("l_shipdate"), schema.MustColIndex("l_shipmode"), schema.MustColIndex("l_quantity")}
	if err := probe("segment.decode_proj3_us_per_obj", 1, 1e3, decode(proj3)); err != nil {
		return nil, err
	}
	if err := probe("segment.encode_v2_us_per_obj", 1, 1e3, func() error {
		data, err := genSeg.EncodeFormat(schema, segment.FormatV2)
		sink += len(data)
		return err
	}); err != nil {
		return nil, err
	}

	lineSegs := make([]*segment.Segment, len(line.Objects))
	for i, id := range line.Objects {
		lineSegs[i] = enc.Store[id]
	}
	if err := probe("stats.collect_us_per_obj", len(lineSegs), 1e3, func() error {
		t, err := stats.CollectChecked("lineitem", schema, lineSegs, stats.DefaultOptions())
		if err == nil {
			sink += len(t.Segments)
		}
		return err
	}); err != nil {
		return nil, err
	}

	// Engine probes drain pull plans over the encoded store with no
	// simulation and no costs.
	ctx := engine.NewTestCtx(enc.Store)
	q12 := workload.Q12(enc.Catalog)
	scanFilter := &mjoin.Query{ID: "scan", Relations: q12.Join.Relations[:1]}
	if err := probe("engine.scan_filter_ms", 1, 1e6, func() error {
		it, err := skipper.BuildPullPlan(ctx, scanFilter)
		if err != nil {
			return err
		}
		k, err := drain(it)
		sink += k
		return err
	}); err != nil {
		return nil, err
	}
	pull := func(spec skipper.QuerySpec, dop int) func() error {
		return func() error {
			it, err := skipper.BuildPullPlan(ctx, spec.Join)
			if err != nil {
				return err
			}
			k, err := drain(engine.Parallelize(spec.Shape(it), dop))
			sink += k
			return err
		}
	}
	if err := probe("engine.q5_pullplan_ms", 1, 1e6, pull(workload.Q5(enc.Catalog), 1)); err != nil {
		return nil, err
	}
	joinAgg, err := (&sql.Planner{Catalog: enc.Catalog}).Plan(joinAggSQL)
	if err != nil {
		return nil, err
	}
	if err := probe("engine.joinagg_dop1_ms", 1, 1e6, pull(joinAgg, 1)); err != nil {
		return nil, err
	}
	// DOP 2 stays a probe: on two shared CPUs it does not repeat within
	// a tenth, so no workload runs at DOP > 1.
	if err := probe("engine.joinagg_dop2_ms", 1, 1e6, pull(joinAgg, 2)); err != nil {
		return nil, err
	}
	if out["engine.joinagg_mallocs"], err = mallocsOf(pull(joinAgg, 1)); err != nil {
		return nil, err
	}

	// MJoin over an in-memory source: the state manager and probe chains
	// alone, cache = every object, then the batch workload's tight cache.
	q5 := workload.Q5(gen.Catalog)
	mj := func(cache int) func() error {
		return func() error {
			res, err := mjoin.Run(q5.Join, mjoin.DefaultConfig(cache), &memSource{store: gen.Store})
			if err == nil {
				sink += len(res.Rows)
			}
			return err
		}
	}
	full := len(q5.Join.Objects())
	if err := probe("mjoin.q5_mem_full_ms", 1, 1e6, mj(full)); err != nil {
		return nil, err
	}
	tight := skipperCacheObjects
	if tight > full {
		tight = full
	}
	if err := probe("mjoin.q5_mem_tight_ms", 1, 1e6, mj(tight)); err != nil {
		return nil, err
	}
	if out["mjoin.q5_mem_mallocs"], err = mallocsOf(mj(full)); err != nil {
		return nil, err
	}

	filter := q12.Join.Relations[0].Filter
	if err := probe("expr.evalbool_ns_per_row", reps*len(rows), 1, func() error {
		for i := 0; i < reps; i++ {
			for _, r := range rows {
				ok, err := expr.EvalBool(filter, r)
				if err != nil {
					return err
				}
				if ok {
					sink++
				}
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}

	planner := &sql.Planner{Catalog: enc.Catalog}
	plan := func(q string) func() error {
		return func() error {
			for i := 0; i < 20; i++ {
				if _, err := planner.Plan(q); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if err := probe("sql.plan_us_micro", 20, 1e3, plan(microSQL)); err != nil {
		return nil, err
	}
	dashQ := dashWindows(cfg.scale.dashWindowMonths)
	if err := probe("sql.plan_us_dash", 20, 1e3, plan(dashQ[len(dashQ)-1][2])); err != nil {
		return nil, err
	}

	// Segment cache: a hit on a resident object, and a put that evicts.
	ids := enc.Catalog.AllObjects()
	hot := segcache.NewObjects(len(ids))
	for _, id := range ids {
		hot.Put(id, enc.Store[id])
	}
	const cacheOps = 20000
	if err := probe("segcache.get_hit_ns", cacheOps, 1, func() error {
		for i := 0; i < cacheOps; i++ {
			if _, ok := hot.Get(ids[i%len(ids)]); !ok {
				return fmt.Errorf("resident object missed")
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	small := segcache.NewObjects(4)
	if err := probe("segcache.put_evict_ns", cacheOps, 1, func() error {
		for i := 0; i < cacheOps; i++ {
			small.Put(ids[i%len(ids)], enc.Store[ids[i%len(ids)]])
		}
		return nil
	}); err != nil {
		return nil, err
	}

	const probeGets = 200
	if err := probe("csd.dispatch_us_per_get", probeGets, 1e3, func() error { return csdDispatch(enc, ids, probeGets) }); err != nil {
		return nil, err
	}
	const sleepers, sleeps = 64, 200
	ns, err := timeMedian(n, func() error { return vtimeTimers(sleepers, sleeps) })
	if err != nil {
		return nil, err
	}
	out["vtime.events_per_s"] = sleepers * sleeps / (ns / 1e9)
	const pings = 5000
	if err := probe("vtime.chan_roundtrip_ns", pings, 1, func() error { return vtimePingPong(pings) }); err != nil {
		return nil, err
	}

	// The per-query floor: one Cluster.Run of the micro query on a warm
	// segment cache.
	micro, err := planner.Plan(microSQL)
	if err != nil {
		return nil, err
	}
	warm := segcache.NewObjects(8)
	minQuery := func() error {
		res, err := (&skipper.Cluster{
			Clients: []*skipper.Client{{
				Mode: skipper.ModeSkipper, Catalog: enc.Catalog, Queries: []skipper.QuerySpec{micro},
				CacheObjects: 10, SegCache: warm,
			}},
			Store: enc.Store,
		}).Run()
		if err == nil {
			sink += int(res.Clients[0].Rows)
		}
		return err
	}
	if err := minQuery(); err != nil { // fills the cache
		return nil, err
	}
	if err := probe("skipper.min_query_us", 1, 1e3, minQuery); err != nil {
		return nil, err
	}

	tenant := 1
	frame, err := json.Marshal(server.Request{ID: "7", Tenant: &tenant, SQL: dashQ[0][0]})
	if err != nil {
		return nil, err
	}
	const parses = 2000
	if err := probe("server.parse_request_ns", parses, 1, func() error {
		for i := 0; i < parses; i++ {
			if _, err := server.ParseRequest(frame); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// csdDispatch runs one simulated client that submits gets GETs to a
// default device holding every object in one group and receives them.
func csdDispatch(enc *workload.Dataset, ids []segment.ObjectID, gets int) error {
	sim := vtime.NewSim()
	assign := layout.MustAssignment(1)
	for _, id := range ids {
		if err := assign.Place(id, 0); err != nil {
			return err
		}
	}
	dev := csd.New(sim, csd.DefaultConfig(), enc.Store, assign)
	dev.Start()
	sim.Spawn("client", func(p *vtime.Proc) {
		reply := vtime.NewChan[csd.Delivery](sim, "reply", gets)
		for i := 0; i < gets; i++ {
			dev.Submit(p, &csd.Request{Object: ids[i%len(ids)], QueryID: "probe", Reply: reply})
		}
		for i := 0; i < gets; i++ {
			reply.Recv(p)
		}
		dev.Shutdown(p)
	})
	return sim.Run()
}

// vtimeTimers has procs processes sleep `sleeps` times each: the timer
// heap and the scheduler's hand-off, one event per sleep.
func vtimeTimers(procs, sleeps int) error {
	sim := vtime.NewSim()
	for i := 0; i < procs; i++ {
		i := i
		sim.Spawn(fmt.Sprint("p", i), func(p *vtime.Proc) {
			for j := 0; j < sleeps; j++ {
				p.Sleep(time.Duration((i*31+j*17)%1000) * time.Millisecond)
			}
		})
	}
	return sim.Run()
}

// vtimePingPong bounces a value between two processes over unbuffered
// channels, n round trips.
func vtimePingPong(n int) error {
	sim := vtime.NewSim()
	ping := vtime.NewChan[int](sim, "ping", 0)
	pong := vtime.NewChan[int](sim, "pong", 0)
	sim.Spawn("a", func(p *vtime.Proc) {
		for i := 0; i < n; i++ {
			ping.Send(p, i)
			pong.Recv(p)
		}
	})
	sim.Spawn("b", func(p *vtime.Proc) {
		for i := 0; i < n; i++ {
			ping.Recv(p)
			pong.Send(p, i)
		}
	})
	return sim.Run()
}
