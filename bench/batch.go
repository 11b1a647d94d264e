package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/objstore"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/sql"
	"repro/internal/trace"
	"repro/internal/tuple"
	"repro/internal/workload"
)

const (
	batchTenants = 5
	// skipperCacheObjects is below Q5's 13-object working set, so MJoin
	// evicts and reissues.
	skipperCacheObjects = 6

	joinAggSQL = `SELECT l_shipmode, COUNT(*) AS lines, SUM(l_quantity) AS qty
		FROM lineitem, orders WHERE l_orderkey = o_orderkey
		GROUP BY l_shipmode ORDER BY l_shipmode`
)

// genTPCH generates one tenant's dataset and its v2 re-encoding: encode,
// store, lazy-decode, catalog statistics and Blooms from the column
// directories.
func genTPCH(cfg *config, tenant int, clustered bool) (gen, enc *workload.Dataset, err error) {
	gen = workload.TPCH(tenant, workload.TPCHConfig{
		SF: cfg.scale.sf, RowsPerObject: cfg.scale.rowsPerObject, Seed: cfg.seed, ClusteredDates: clustered,
	})
	enc, err = objstore.ReencodeDataset(gen, segment.FormatV2)
	return gen, enc, err
}

// batchQueries is the query sequence every batch tenant runs.
func batchQueries(cat *catalog.Catalog) ([]skipper.QuerySpec, error) {
	joinAgg, err := (&sql.Planner{Catalog: cat}).Plan(joinAggSQL)
	if err != nil {
		return nil, fmt.Errorf("plan joinagg: %w", err)
	}
	joinAgg.Name = "joinagg"
	return []skipper.QuerySpec{workload.Q12(cat), workload.Q5(cat), joinAgg}, nil
}

// renderRows renders result rows for the byte-for-byte comparison with
// the oracle. Floats are rendered to the cent: the float sums of Q5 are
// sums of exact two-decimal amounts, and MJoin adds them in arrival order,
// so the two engines legitimately differ in the last ulps and nowhere
// near a rounding boundary.
func renderRows(rows []tuple.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if v.K == tuple.KindFloat64 {
				parts[j] = strconv.FormatFloat(v.AsFloat(), 'f', 2, 64)
			} else {
				parts[j] = v.String()
			}
		}
		out[i] = "(" + strings.Join(parts, ", ") + ")"
	}
	return out
}

// oracleRows evaluates each spec locally against the generated
// (never-encoded) dataset, with data skipping off.
func oracleRows(cfg *config, gen *workload.Dataset, specs []skipper.QuerySpec) ([][]string, error) {
	out := make([][]string, len(specs))
	for i, spec := range specs {
		rows, err := workload.Evaluate(gen, spec)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", spec.Name, err)
		}
		if len(rows) == 0 && !cfg.scale.allowEmpty {
			return nil, fmt.Errorf("oracle %s: query selects no rows at this scale and seed; the check would be vacuous", spec.Name)
		}
		out[i] = renderRows(rows)
	}
	return out, nil
}

type batchState struct {
	mode  skipper.Mode
	gens  []*workload.Dataset
	encs  []*workload.Dataset
	store map[segment.ObjectID]*segment.Segment
	specs [][]skipper.QuerySpec // [tenant][query], planned against the encoded catalog
	want  [][][]string          // [tenant][query] rows
	// firstObjects is what one op requests when nothing is reissued.
	firstObjects int
}

// setupBatch builds five tenants' datasets behind one shared store.
func setupBatch(cfg *config, skipperMode bool) (*instance, error) {
	b := &batchState{mode: skipper.ModeVanilla, store: make(map[segment.ObjectID]*segment.Segment)}
	if skipperMode {
		b.mode = skipper.ModeSkipper
	}
	for t := 0; t < batchTenants; t++ {
		gen, enc, err := genTPCH(cfg, t, false)
		if err != nil {
			return nil, err
		}
		enc.MergeInto(b.store)
		specs, err := batchQueries(enc.Catalog)
		if err != nil {
			return nil, err
		}
		for _, s := range specs {
			b.firstObjects += len(s.Join.Objects())
		}
		b.gens, b.encs, b.specs = append(b.gens, gen), append(b.encs, enc), append(b.specs, specs)
	}
	return &instance{
		conns:        1,
		warmupRounds: cfg.scale.batchWarmup,
		round:        func(_ int, rec *recorder) { b.op(rec) },
		oracle:       func() error { return b.oracle(cfg) },
		close:        func() {},
		gen:          b.gens[0],
		enc:          b.encs[0],
	}, nil
}

func (b *batchState) oracle(cfg *config) error {
	b.want = nil
	for t, gen := range b.gens {
		specs, err := batchQueries(gen.Catalog)
		if err != nil {
			return err
		}
		rows, err := oracleRows(cfg, gen, specs)
		if err != nil {
			return fmt.Errorf("tenant %d: %w", t, err)
		}
		b.want = append(b.want, rows)
	}
	return nil
}

// op is one skipper.Cluster.Run: five tenants, three queries each, one
// default CSD, no segment cache, pipeline or faults.
func (b *batchState) op(rec *recorder) {
	clients := make([]*skipper.Client, batchTenants)
	for t := range clients {
		clients[t] = &skipper.Client{
			Tenant: t, Mode: b.mode, Catalog: b.encs[t].Catalog,
			Queries: b.specs[t], KeepResults: true,
		}
		if b.mode == skipper.ModeSkipper {
			clients[t].CacheObjects = skipperCacheObjects
		}
		if rec.spans.enabled() {
			clients[t].QTrace = trace.NewQueryTrace(fmt.Sprintf("t%d", t), t, "")
		}
	}
	root := rec.spans.beginOp()
	call := rec.spans.begin("skipper.Cluster.Run", "skipper", root)
	start := time.Now()
	res, err := (&skipper.Cluster{Clients: clients, Store: b.store}).Run()
	wall := time.Since(start)
	rec.spans.end(call)
	if rec.spans.enabled() {
		for t, c := range clients {
			at := int64(c.QTrace.Origin().Sub(rec.spans.origin))
			rec.spans.adopt(call, t+1, at, c.QTrace.Spans())
		}
	}

	verify := rec.spans.begin("verify", "bench", root)
	var got, want []string
	if err == nil {
		for t, cs := range res.Clients {
			if len(cs.PerQuery) != len(b.specs[t]) {
				err = fmt.Errorf("tenant %d ran %d queries, want %d", t, len(cs.PerQuery), len(b.specs[t]))
				break
			}
			for q, qr := range cs.PerQuery {
				got = append(got, renderRows(qr.Results)...)
				want = append(want, b.want[t][q]...)
			}
		}
	}
	if rec.digest == "" && err == nil {
		rec.digest = digestRows(got)
	}
	rec.done(wall, err, got, want)
	rec.spans.end(verify)
	rec.spans.endOp(root)

	if !rec.layers || err != nil {
		return
	}
	rec.add("virt_us", res.Makespan.Microseconds())
	rec.add("device_gets", int64(res.CSD.GetsReceived))
	rec.add("group_switches", int64(res.CSD.GroupSwitches))
	rec.add("gets_coalesced", int64(res.CSD.GetsCoalesced))
	rec.add("objects_served", int64(res.CSD.ObjectsServed))
	for _, iv := range res.CSD.SwitchIntervals {
		rec.add("switch_virt_us", (iv.To - iv.From).Microseconds())
	}
	requests := 0
	for _, cs := range res.Clients {
		rec.add("stall_virt_us", cs.Stalled().Microseconds())
		rec.add("processing_virt_us", cs.Processing.Microseconds())
		rec.add("gets_issued", int64(cs.GetsIssued))
		rec.add("cache_hits", int64(cs.CacheHits))
		rec.add("segments_skipped", int64(cs.SegmentsSkipped))
		rec.add("decode_busy_ns", int64(cs.Pipe.DecodeBusy))
		rec.add("bytes_decoded", cs.BytesDecoded)
		rec.add("bytes_skipped_by_projection", cs.BytesSkippedByProjection)
		rec.add("mjoin_requests", int64(cs.MJoin.Requests))
		rec.add("mjoin_evictions", int64(cs.MJoin.Evictions))
		rec.add("mjoin_subplans_executed", int64(cs.MJoin.SubplansExecuted))
		rec.add("mjoin_subplans_pruned", int64(cs.MJoin.SubplansPruned))
		requests += cs.MJoin.Requests + cs.MJoin.ObjectsSkipped
	}
	if b.mode == skipper.ModeSkipper {
		// Every object is requested once unless data skipping retires it;
		// anything beyond that is a reissue after an eviction.
		rec.add("mjoin_reissues", int64(requests-b.firstObjects))
	}
}
