// Package repro_test hosts the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation, plus ablation benches
// for the design choices called out in docs/architecture.md. Benchmarks
// run at the Quick (reduced) scale by default so `go test -bench=.` stays
// fast; set SKIPPER_BENCH_FULL=1 to run the paper-scale configuration the
// sweeps under docs/reports/ use.
package repro_test

import (
	"fmt"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/csd"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/lattice"
	"repro/internal/mjoin"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/workload"
)

func params() experiments.Params {
	if os.Getenv("SKIPPER_BENCH_FULL") != "" {
		return experiments.Default()
	}
	return experiments.Quick()
}

func BenchmarkTable1Costs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if f := experiments.Table1(); len(f.Rows) != 4 {
			b.Fatalf("rows %d", len(f.Rows))
		}
	}
}

func BenchmarkFigure2TieringCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Figure2Data()
		if len(pts) != 7 {
			b.Fatal("bad point count")
		}
	}
}

func BenchmarkFigure3CSTSavings(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		pts := experiments.Figure3Data()
		last = pts[len(pts)-1].Ratio
	}
	b.ReportMetric(last, "savings-ratio")
}

// measure measures the grid of the figure id b.N times and returns the
// last matrix: the numbers the figure's shape test reads.
func measure(b *testing.B, id string) *experiments.Matrix {
	p := params()
	var m *experiments.Matrix
	var err error
	for i := 0; i < b.N; i++ {
		if m, err = p.Measure(id); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

func BenchmarkFigure4VanillaScaling(b *testing.B) {
	m := measure(b, "4")
	b.ReportMetric(m.At(4, "PostgreSQL-on-CSD")/m.At(4, "PostgreSQL-on-HDD (ideal)"), "slowdown-at-5-clients")
}

func BenchmarkFigure5LatencySensitivity(b *testing.B) {
	avg := measure(b, "5").Col("avg exec time (s)")
	b.ReportMetric(avg[len(avg)-1]/avg[0], "S20-vs-S0-ratio")
}

func BenchmarkFigure7OutOfOrder(b *testing.B) {
	m := measure(b, "7")
	last := m.Len() - 1
	van, skp, ideal := m.At(last, "PostgreSQL"), m.At(last, "Skipper"), m.At(last, "Ideal")
	b.ReportMetric(van/skp, "skipper-speedup-5c")
	b.ReportMetric(skp/ideal, "skipper-vs-ideal-5c")
}

func BenchmarkFigure8MixedWorkload(b *testing.B) {
	p := params()
	var pts map[string]experiments.Figure8Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = p.Figure8Data()
		if err != nil {
			b.Fatal(err)
		}
	}
	tp := pts["TPC-H"]
	b.ReportMetric(float64(tp.Vanilla)/float64(tp.Skipper), "tpch-speedup")
}

func BenchmarkFigure9Breakdown(b *testing.B) {
	m := measure(b, "9")
	b.ReportMetric(100*m.At(0, "switch")/m.At(0, "total"), "vanilla-switch-pct")
	b.ReportMetric(100*m.At(1, "switch")/m.At(1, "total"), "skipper-switch-pct")
}

func BenchmarkTable3ComponentBreakdown(b *testing.B) {
	p := params()
	var pts []experiments.Table3Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = p.Table3Data()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pts[0].Exec.Seconds(), "vanilla-exec-s")
	b.ReportMetric(pts[1].Exec.Seconds(), "mjoin-exec-s")
}

func BenchmarkFigure10SwitchLatency(b *testing.B) {
	m := measure(b, "10")
	van, skp := m.Col("PostgreSQL"), m.Col("Skipper")
	b.ReportMetric(skp[3]/skp[0], "skipper-growth-10to40s")
	b.ReportMetric(van[3]/van[0], "vanilla-growth-10to40s")
}

func BenchmarkFigure11aLayout(b *testing.B) {
	m := measure(b, "11a")
	const perG = 2
	b.ReportMetric(m.At(perG, "PostgreSQL")/m.At(perG, "Skipper"), "skipper-speedup-1perG")
}

func BenchmarkFigure11bCacheSF50(b *testing.B) {
	gets := measure(b, "11b").Col("GET requests/client")
	b.ReportMetric(gets[0], "gets-smallest-cache")
	b.ReportMetric(gets[len(gets)-1], "gets-largest-cache")
}

func BenchmarkFigure11cCacheSF100(b *testing.B) {
	m := measure(b, "11c")
	avg := m.Col("avg exec time (s)")
	b.ReportMetric(m.At(0, "GET requests/client"), "gets-smallest-cache")
	b.ReportMetric(avg[0]/avg[len(avg)-1], "slowdown-small-vs-large")
}

func BenchmarkFigure12Scheduling(b *testing.B) {
	m := measure(b, "12")
	for r := 0; r < m.Len(); r++ {
		b.ReportMetric(m.At(r, "max stretch"), m.Keys(r)[0]+"-max-stretch")
	}
}

// --- Ablation benches (docs/architecture.md, "MJoin execution") ---

// ablationCache picks a cache size that forces eviction pressure on Q5
// (six relations) while staying valid at reduced scale.
func ablationCache(p experiments.Params) int {
	c := p.CacheObjects / 2
	if c < 7 {
		c = 7
	}
	return c
}

// tenants is a workload of n TPC-H tenants at the params' scale, each
// with its own dataset and running its query once, over one store.
func tenants(p experiments.Params, n int, clustered bool, query func(*catalog.Catalog) skipper.QuerySpec) lattice.Workload {
	w := lattice.Workload{Store: make(map[segment.ObjectID]*segment.Segment)}
	for t := 0; t < n; t++ {
		ds := workload.TPCH(t, workload.TPCHConfig{SF: p.SF, RowsPerObject: p.RowsPerObject, Seed: p.Seed, ClusteredDates: clustered})
		ds.MergeInto(w.Store)
		w.Tenants = append(w.Tenants, lattice.Tenant{Catalog: ds.Catalog, Queries: []skipper.QuerySpec{query(ds.Catalog)}})
	}
	return w
}

// benchGets runs one tenant's query as the cell b.N times and reports the
// GETs its client issued.
func benchGets(b *testing.B, cell lattice.Cell, clustered bool, query func(*catalog.Catalog) skipper.QuerySpec) {
	p := params()
	var gets int
	for i := 0; i < b.N; i++ {
		res, err := cell.Run(tenants(p, 1, clustered, query))
		if err != nil {
			b.Fatal(err)
		}
		gets = res.Clients[0].GetsIssued
	}
	b.ReportMetric(float64(gets), "gets")
}

// benchCacheSweepPolicy measures GET traffic for one eviction policy.
func benchCacheSweepPolicy(b *testing.B, pol mjoin.EvictionPolicy) {
	opts := skipper.Options{Mode: skipper.ModeSkipper, CacheObjects: ablationCache(params()), Policy: pol}
	benchGets(b, lattice.Cell{Options: opts}, false, workload.Q5)
}

func BenchmarkAblationEvictionMaxProgress(b *testing.B) {
	benchCacheSweepPolicy(b, mjoin.MaxProgress{})
}

func BenchmarkAblationEvictionMaxPending(b *testing.B) {
	benchCacheSweepPolicy(b, mjoin.MaxPending{})
}

func BenchmarkAblationEvictionLRU(b *testing.B) {
	benchCacheSweepPolicy(b, mjoin.LRU{})
}

// benchOrdering measures the effect of the in-group delivery order on
// MJoin reissues (§4.4 "What ordering within a group?").
func benchOrdering(b *testing.B, order csd.OrderKind) {
	dev := csd.DefaultConfig()
	dev.Order = order
	opts := skipper.Options{Mode: skipper.ModeSkipper, CacheObjects: ablationCache(params())}
	benchGets(b, lattice.Cell{Options: opts, Fleet: skipper.FleetSpec{Device: dev}}, false, workload.Q5)
}

func BenchmarkAblationOrderSemanticRR(b *testing.B) {
	benchOrdering(b, csd.SemanticRoundRobin)
}

func BenchmarkAblationOrderSequential(b *testing.B) {
	benchOrdering(b, csd.SequentialOrder)
}

// benchPruning measures subplan pruning under clustered selectivity:
// lineitem sorted by ship date concentrates Q12's matches in a few
// segments, so pruning skips refetching the rest (§5.2.4). The MJoin
// buffer is tight, 3 objects: without pruning it reissues.
func benchPruning(b *testing.B, pruning, clustered bool) {
	opts := skipper.Options{Mode: skipper.ModeSkipper, CacheObjects: 3, NoSubplanPruning: !pruning}
	benchGets(b, lattice.Cell{Options: opts}, clustered, workload.Q12)
}

func BenchmarkAblationPruningClusteredOn(b *testing.B)  { benchPruning(b, true, true) }
func BenchmarkAblationPruningClusteredOff(b *testing.B) { benchPruning(b, false, true) }
func BenchmarkAblationPruningUniformOn(b *testing.B)    { benchPruning(b, true, false) }
func BenchmarkAblationPruningUniformOff(b *testing.B)   { benchPruning(b, false, false) }

// BenchmarkAblationSchedulers compares Figure 12's policies — five
// clients repeating Q12 ten times on the skewed layout, where the policies
// have choices to make — by cumulative time.
func BenchmarkAblationSchedulers(b *testing.B) {
	m := measure(b, "12")
	cum := m.Col("cumulative time (s)")
	for r := range cum {
		b.ReportMetric(time.Duration(cum[r]).Seconds(), m.Keys(r)[0]+"-cumulative-s")
	}
	if slices.Min(cum) == slices.Max(cum) {
		b.Fatalf("all %d policies take %v cumulative: the ablation measures nothing", len(cum), time.Duration(cum[0]))
	}
}

// BenchmarkOutlookParallelStreams implements §5.2.1's outlook: raising
// the per-tenant transfer parallelism shrinks the transfer-bound portion
// of Skipper's execution substantially.
func BenchmarkOutlookParallelStreams(b *testing.B) {
	p := params()
	for _, streams := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("streams-%d", streams), func(b *testing.B) {
			dev := csd.DefaultConfig()
			dev.StreamsPerTenant = streams
			cell := lattice.Cell{
				Options: skipper.Options{Mode: skipper.ModeSkipper, CacheObjects: p.CacheObjects},
				Fleet:   skipper.FleetSpec{Device: dev},
			}
			var avg time.Duration
			for i := 0; i < b.N; i++ {
				res, err := cell.Run(tenants(p, 3, false, workload.Q12))
				if err != nil {
					b.Fatal(err)
				}
				var sum time.Duration
				for _, cs := range res.Clients {
					sum += cs.Elapsed()
				}
				avg = sum / time.Duration(len(res.Clients))
			}
			b.ReportMetric(avg.Seconds(), "avg-exec-s")
		})
	}
}

// BenchmarkMJoinEngine measures raw state-manager throughput (real time,
// not virtual): subplans executed per second on an in-memory source.
func BenchmarkMJoinEngine(b *testing.B) {
	p := params()
	ds := workload.TPCH(0, workload.TPCHConfig{SF: p.SF, RowsPerObject: p.RowsPerObject, Seed: p.Seed})
	spec := workload.Q5(ds.Catalog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := &memSource{store: ds.Store}
		res, err := mjoin.Run(spec.Join, mjoin.DefaultConfig(len(spec.Join.Objects())), src)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.SubplansExecuted == 0 {
			b.Fatal("no subplans executed")
		}
	}
}

// BenchmarkPullPlanQ5 drives the classical engine's full Q5 join chain
// (multi-segment scans feeding a five-way hash-join chain) over an
// in-memory store: the pull engine's counterpart of BenchmarkMJoinEngine.
// The local predicates are dropped so the join carries real row traffic at
// the reduced Quick scale (the filtered plans select zero rows there).
func BenchmarkPullPlanQ5(b *testing.B) {
	p := params()
	ds := workload.TPCH(0, workload.TPCHConfig{SF: p.SF, RowsPerObject: p.RowsPerObject, Seed: p.Seed})
	q5 := workload.Q5(ds.Catalog)
	spec := skipper.QuerySpec{Join: &mjoin.Query{ID: q5.Join.ID, Joins: q5.Join.Joins}}
	for _, r := range q5.Join.Relations {
		spec.Join.Relations = append(spec.Join.Relations, mjoin.Relation{Table: r.Table})
	}
	ctx := engine.NewTestCtx(ds.Store)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it, err := skipper.BuildPullPlan(ctx, spec.Join)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := engine.Collect(it)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// memSource is an immediate in-memory mjoin.Source.
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
	sg := s.queue[0]
	s.queue = s.queue[1:]
	return sg, nil
}
