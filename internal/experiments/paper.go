package experiments

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/csd"
	"repro/internal/lattice"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/skipper"
	"repro/internal/workload"
)

// This file declares the paper's run-based figures (§3.2, §5.2). Most are
// grids over the TPC-H tenants of tpch; Figure 8 and Table 3 are read off
// their runs by hand, because their rows are not runs.

// tpch is the workload of n TPC-H tenants at scale sf, each on a dataset of
// its own served as v2 objects and running queries, on one disk group per
// tenant.
func (p Params) tpch(n, sf int, queries func(*catalog.Catalog) []skipper.QuerySpec) func() (lattice.Workload, error) {
	return func() (lattice.Workload, error) {
		w := lattice.Workload{Store: make(mapStore)}
		for t := 0; t < n; t++ {
			ds, err := encoded(workload.TPCH(t, p.tpchConfig(sf)))
			if err != nil {
				return w, err
			}
			ds.MergeInto(w.Store)
			w.Tenants = append(w.Tenants, lattice.Tenant{Catalog: ds.Catalog, Queries: queries(ds.Catalog)})
		}
		return w, nil
	}
}

func (p Params) tpchConfig(sf int) workload.TPCHConfig {
	return workload.TPCHConfig{SF: sf, RowsPerObject: p.RowsPerObject, Seed: p.Seed}
}

// paperCell is the base cell of every run in this file: the Params' cell
// with data skipping off, because the engines the paper models read every
// object of a relation.
func (p Params) paperCell(mode skipper.Mode) lattice.Cell {
	c := p.cell(mode)
	c.NoStatsPruning = true
	return c
}

func q12(cat *catalog.Catalog) []skipper.QuerySpec { return []skipper.QuerySpec{workload.Q12(cat)} }

func q5(cat *catalog.Catalog) []skipper.QuerySpec { return []skipper.QuerySpec{workload.Q5(cat)} }

// repeat runs the query list n times over.
func repeat(n int, queries func(*catalog.Catalog) []skipper.QuerySpec) func(*catalog.Catalog) []skipper.QuerySpec {
	return func(cat *catalog.Catalog) []skipper.QuerySpec {
		qs, out := queries(cat), []skipper.QuerySpec(nil)
		for r := 0; r < n; r++ {
			out = append(out, qs...)
		}
		return out
	}
}

// clientRows are the rows of a client-count sweep: 1 to 5 tenants on Q12.
func (p Params) clientRows() []Row {
	var rows []Row
	for c := 1; c <= 5; c++ {
		rows = append(rows, Row{Keys: []string{fmt.Sprint(c)}, Workload: p.tpch(c, p.SF, q12)})
	}
	return rows
}

// latencyRows are the rows of a switch-latency sweep: five Q12 tenants.
func (p Params) latencyRows(latencies ...time.Duration) []Row {
	var rows []Row
	for _, s := range latencies {
		rows = append(rows, Row{
			Keys:     []string{secs(s)},
			Change:   func(c *lattice.Cell, _ *lattice.Workload) { c.Fleet.Device.GroupSwitch = s },
			Workload: p.tpch(5, p.SF, q12),
		})
	}
	return rows
}

// figure4 measures the vanilla engine on the CSD against the HDD-like
// one-group tier as clients grow (§3.2, Q12, 10 s switch).
func (p Params) figure4() (*Grid, error) {
	return &Grid{
		ID:     "Figure 4",
		Title:  "Vanilla engine, avg exec time (s) vs number of clients (Q12, S=10s)",
		Keys:   []string{"clients"},
		Base:   p.paperCell(skipper.ModeVanilla),
		Rows:   p.clientRows(),
		Series: []Change{nil, ideal}, // the CSD as configured, then the one-group tier
		Columns: []Column{
			{"PostgreSQL-on-CSD", 0, avgClient, seconds},
			{"PostgreSQL-on-HDD (ideal)", 1, avgClient, seconds},
		},
	}, nil
}

// figure5 measures the vanilla engine's sensitivity to the group switch
// latency with five clients (§3.2).
func (p Params) figure5() (*Grid, error) {
	return &Grid{
		ID:      "Figure 5",
		Title:   "Vanilla engine, avg exec time (s) vs group switch latency (Q12, 5 clients)",
		Keys:    []string{"switch latency (s)"},
		Base:    p.paperCell(skipper.ModeVanilla),
		Rows:    p.latencyRows(0, 5*time.Second, 10*time.Second, 15*time.Second, 20*time.Second),
		Columns: []Column{{"avg exec time (s)", 0, avgClient, seconds}},
	}, nil
}

// figure7 compares vanilla, Skipper and the HDD ideal as clients scale
// (§5.2.1): the benefit of out-of-order execution.
func (p Params) figure7() (*Grid, error) {
	return &Grid{
		ID:     "Figure 7",
		Title:  "Avg exec time (s) vs clients: vanilla vs Skipper vs ideal (Q12, S=10s)",
		Keys:   []string{"clients"},
		Base:   p.paperCell(skipper.ModeVanilla),
		Rows:   p.clientRows(),
		Series: []Change{useEngine(skipper.ModeVanilla), useEngine(skipper.ModeSkipper), ideal},
		Columns: []Column{
			{"PostgreSQL", 0, avgClient, seconds},
			{"Skipper", 1, avgClient, seconds},
			{"Ideal", 2, avgClient, seconds},
		},
	}, nil
}

// figure9 splits the per-client execution time with five clients running
// Q12 (§5.2.1), averaged across clients; processing includes FUSE.
func (p Params) figure9() (*Grid, error) {
	g := &Grid{
		ID:    "Figure 9",
		Title: "Avg exec-time breakdown, 5 clients, Q12 (% of total)",
		Keys:  []string{"engine"},
		Base:  p.paperCell(skipper.ModeVanilla),
		Columns: []Column{
			{"total", 0, breakdown(func(b metrics.Breakdown) time.Duration { return b.Total }), nil},
			{"processing", 0, breakdown(func(b metrics.Breakdown) time.Duration { return b.Processing + b.Fuse }), shareOf("total")},
			{"switch", 0, breakdown(func(b metrics.Breakdown) time.Duration { return b.Switch }), shareOf("total")},
			{"transfer", 0, breakdown(func(b metrics.Breakdown) time.Duration { return b.Transfer }), shareOf("total")},
		},
	}
	for _, mode := range engines {
		g.Rows = append(g.Rows, Row{Keys: []string{mode.String()}, Change: useEngine(mode), Workload: p.tpch(5, p.SF, q12)})
	}
	return g, nil
}

// figure10 measures both engines' sensitivity to the group switch latency
// with five clients (§5.2.2).
func (p Params) figure10() (*Grid, error) {
	return &Grid{
		ID:     "Figure 10",
		Title:  "Avg exec time (s) vs group switch latency, 5 clients (Q12)",
		Keys:   []string{"switch latency (s)"},
		Base:   p.paperCell(skipper.ModeVanilla),
		Rows:   p.latencyRows(10*time.Second, 20*time.Second, 30*time.Second, 40*time.Second),
		Series: vanillaSkipper,
		Columns: []Column{
			{"PostgreSQL", 0, avgClient, seconds},
			{"Skipper", 1, avgClient, seconds},
		},
	}, nil
}

// figure11a measures sensitivity to the CSD data layout with four clients
// (§5.2.3): all-in-one, two clients per group, one client per group, and
// the incremental split layout.
func (p Params) figure11a() (*Grid, error) {
	g := &Grid{
		ID:     "Figure 11a",
		Title:  "Avg exec time (s) vs data layout, 4 clients (Q12)",
		Keys:   []string{"layout"},
		Base:   p.paperCell(skipper.ModeVanilla),
		Series: vanillaSkipper,
		Columns: []Column{
			{"PostgreSQL", 0, avgClient, seconds},
			{"Skipper", 1, avgClient, seconds},
		},
	}
	for _, l := range []struct {
		name string
		pol  layout.Policy
	}{
		{"Allin1", layout.AllInOne{}},
		{"2perG", layout.ClientsPerGroup{K: 2}},
		{"1perG", layout.OnePerGroup()},
		{"Increm.", layout.Incremental{}},
	} {
		g.Rows = append(g.Rows, Row{
			Keys:     []string{l.name},
			Change:   func(_ *lattice.Cell, w *lattice.Workload) { w.Layout = l.pol },
			Workload: p.tpch(4, p.SF, q12),
		})
	}
	return g, nil
}

// cacheGrid sweeps the MJoin cache with five Skipper clients on Q5 at
// scale sf (Figures 11b/c): average time, and GETs per client, MJoin
// reissues included (the figures' black line).
func (p Params) cacheGrid(id, title string, sf int, caches []int) *Grid {
	g := &Grid{
		ID: id, Title: title,
		Keys: []string{"cache (objects)"},
		Base: p.paperCell(skipper.ModeSkipper),
		Columns: []Column{
			{"avg exec time (s)", 0, avgClient, seconds},
			{"GET requests/client", 0, gets, count},
		},
	}
	for _, cache := range caches {
		g.Rows = append(g.Rows, Row{
			Keys:     []string{fmt.Sprint(cache)},
			Change:   func(c *lattice.Cell, _ *lattice.Workload) { c.CacheObjects = cache },
			Workload: p.tpch(5, sf, q5),
		})
	}
	return g
}

// q5Caches derives the sweep's cache sizes as fractions of the Q5 input
// footprint, clamped to at least one object per relation plus one. At
// SF-50 (63 input objects) this yields the paper's 10–30 GB points.
func (p Params) q5Caches(sf int, fracs []float64) []int {
	q := workload.Q5(workload.TPCH(0, p.tpchConfig(sf)).Catalog)
	footprint := len(q.Join.Objects())
	minCache := len(q.Join.Relations) + 1
	caches := make([]int, 0, len(fracs))
	for _, fr := range fracs {
		c := max(int(fr*float64(footprint)+0.5), minCache)
		if len(caches) == 0 || c > caches[len(caches)-1] {
			caches = append(caches, c)
		}
	}
	return caches
}

// figure11b sweeps the MJoin cache on Q5 at SF-50 (§5.2.4) from ~16% to
// ~48% of the input footprint (10 to 30 objects at SF-50). The paper's
// vanilla reference is 3,710 s; VanillaQ5 measures ours.
func (p Params) figure11b() (*Grid, error) {
	van, err := p.VanillaQ5()
	if err != nil {
		return nil, err
	}
	g := p.cacheGrid("Figure 11b", "Skipper avg exec time and GET count vs cache size (Q5, SF-50, 5 clients)",
		p.SF, p.q5Caches(p.SF, []float64{0.16, 0.24, 0.32, 0.40, 0.48}))
	g.Notes = []string{fmt.Sprintf("vanilla engine reference: %s s", secs(van))}
	return g, nil
}

// figure11c repeats the sweep at SF-100 (§5.2.4): cache from 10% to 30% of
// the whole dataset in 5% steps (14 to 42 objects at SF-100, where the
// dataset totals 140 objects).
func (p Params) figure11c() (*Grid, error) {
	return p.cacheGrid("Figure 11c", "Skipper avg exec time and GET count vs cache size (Q5, SF-100, 5 clients)",
		p.SF100, p.q5Caches(p.SF100, []float64{0.113, 0.169, 0.226, 0.282, 0.339})), nil
}

// VanillaQ5 measures the vanilla engine's Q5 time in the five-client setup
// of Figure 11b, the reference line of §5.2.4.
func (p Params) VanillaQ5() (time.Duration, error) {
	avg, err := once(p.paperCell(skipper.ModeVanilla), p.tpch(5, p.SF, q5), avgClient)
	return time.Duration(avg), err
}

// figure12 compares FCFS, Max-Queries and rank-based scheduling under the
// skewed layout of §5.2.5: five Skipper clients repeating Q12 ten times;
// two groups hold two clients each and the last group one client. Stretch
// normalizes each query's time by its time in a single-client run, where
// every query is serviced without competition. The fairness row is
// csd.FCFSObject: the device numbers every arrival uniquely, so
// query-level FCFS would load the same group at every switch.
func (p Params) figure12() (*Grid, error) {
	const repeats = 10
	alone, err := once(p.paperCell(skipper.ModeSkipper), p.tpch(1, p.SF, repeat(repeats, q12)), cumClient)
	if err != nil {
		return nil, err
	}
	ideal := time.Duration(alone) / repeats
	g := &Grid{
		ID:    "Figure 12",
		Title: "Fairness vs efficiency: scheduling policies under a skewed layout (Q12 x10, 5 clients)",
		Keys:  []string{"policy"},
		Base:  p.paperCell(skipper.ModeSkipper),
		Columns: []Column{
			{"L2-norm stretch", 0, stretch(ideal, metrics.L2Norm), fixed(2)},
			{"max stretch", 0, stretch(ideal, metrics.Max), fixed(2)},
			{"cumulative time (s)", 0, cumClient, seconds},
			{"switches", 0, switches, count},
		},
	}
	for _, pol := range []struct {
		name  string
		sched csd.Scheduler
	}{
		{"fairness", csd.NewFCFSObject()},
		{"maxquery", csd.NewMaxQueries()},
		{"ranking", csd.NewRankBased()},
	} {
		g.Rows = append(g.Rows, Row{
			Keys: []string{pol.name},
			Change: func(c *lattice.Cell, w *lattice.Workload) {
				c.Fleet.Device.Scheduler, w.Layout = pol.sched, layout.ByTenant{Groups: []int{0, 0, 1, 1, 2}}
			},
			Workload: p.tpch(5, p.SF, repeat(repeats, q12)),
		})
	}
	return g, nil
}

// Figure8Point is one workload bar pair of Figure 8.
type Figure8Point struct {
	Workload string
	Vanilla  time.Duration
	Skipper  time.Duration
}

// Figure8 renders Figure 8 from the concurrent mixed run.
func (p Params) Figure8() (*Figure, error) {
	pts, err := p.Figure8Data()
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:      "Figure 8",
		Title:   "Cumulative exec time (s), mixed workload: 4 concurrent clients, 5 repetitions each",
		Columns: []string{"workload", "PostgreSQL", "Skipper"},
	}
	for _, name := range []string{"TPC-H", "MR-Bench", "NREF", "SSB"} {
		pt := pts[name]
		f.Rows = append(f.Rows, []string{pt.Workload, secs(pt.Vanilla), secs(pt.Skipper)})
	}
	return f, nil
}

// Figure8Data reproduces §5.2.1's mixed workload: four clients, each
// running a different benchmark query (Q12, JoinTask, NREF 4-join,
// SSB Q1) five times against one shared CSD; cumulative execution time
// per workload under each engine. Not a grid: its rows are the tenants of
// one run per engine, not runs.
func (p Params) Figure8Data() (map[string]Figure8Point, error) {
	names := []string{"TPC-H", "MR-Bench", "NREF", "SSB"}
	queries := []func(*catalog.Catalog) skipper.QuerySpec{workload.Q12, workload.MRJoinTask, workload.NREFJoin, workload.SSBQ1}
	elapsed := map[skipper.Mode][]time.Duration{}
	for _, mode := range engines {
		w := lattice.Workload{Store: make(mapStore)}
		for t, gen := range []*workload.Dataset{
			workload.TPCH(0, p.tpchConfig(p.SF)),
			workload.MRBench(1, workload.MRBenchConfig{TotalGB: 20, RowsPerObject: p.RowsPerObject, Seed: p.Seed}),
			workload.NREF(2, workload.NREFConfig{TotalGB: 13, RowsPerObject: p.RowsPerObject, Seed: p.Seed}),
			workload.SSB(3, workload.SSBConfig{SF: p.SF, RowsPerObject: p.RowsPerObject, Seed: p.Seed}),
		} {
			ds, err := encoded(gen)
			if err != nil {
				return nil, err
			}
			ds.MergeInto(w.Store)
			query := func(cat *catalog.Catalog) []skipper.QuerySpec { return []skipper.QuerySpec{queries[t](cat)} }
			w.Tenants = append(w.Tenants, lattice.Tenant{Catalog: ds.Catalog, Queries: repeat(5, query)(ds.Catalog)})
		}
		res, err := p.paperCell(mode).Run(w)
		if err != nil {
			return nil, err
		}
		for _, cs := range res.Clients {
			elapsed[mode] = append(elapsed[mode], cs.Elapsed())
		}
	}
	out := make(map[string]Figure8Point)
	for t, name := range names {
		out[name] = Figure8Point{Workload: name, Vanilla: elapsed[skipper.ModeVanilla][t], Skipper: elapsed[skipper.ModeSkipper][t]}
	}
	return out, nil
}

// Table3Point is one engine's component split for the single-client,
// single-group run of Table 3.
type Table3Point struct {
	Mode    skipper.Mode
	Exec    time.Duration
	Fuse    time.Duration
	Network time.Duration
	Total   time.Duration
}

// Table3Data reproduces Table 3: one client, all data in one group (no
// switches); execution time split into query execution, FUSE overhead and
// network access. Not a grid: its rows are the components of two runs.
func (p Params) Table3Data() ([]Table3Point, error) {
	var out []Table3Point
	for _, mode := range engines {
		w, err := p.tpch(1, p.SF, q12)()
		if err != nil {
			return nil, err
		}
		w.Layout = layout.AllInOne{}
		res, err := p.paperCell(mode).Run(w)
		if err != nil {
			return nil, err
		}
		cs := res.Clients[0]
		out = append(out, Table3Point{Mode: mode, Exec: cs.Processing, Fuse: cs.Fuse, Network: cs.Stalled(), Total: cs.Elapsed()})
	}
	return out, nil
}

// Table3 renders Table 3.
func (p Params) Table3() (*Figure, error) {
	pts, err := p.Table3Data()
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:      "Table 3",
		Title:   "Component breakdown, 1 client, no group switches (Q12)",
		Columns: []string{"component", "PostgreSQL", "%", "Skipper", "%"},
		Notes: []string{
			"Skipper overlaps MJoin processing with CSD transfers, so its total is below",
			"exec+network; the paper's middleware serialized them (1007 s total).",
		},
	}
	van, skp := pts[0], pts[1]
	row := func(name string, v, s time.Duration) []string {
		return []string{
			name,
			secs(v), fmt.Sprintf("%.1f%%", metrics.Percent(v, van.Total)),
			secs(s), fmt.Sprintf("%.1f%%", metrics.Percent(s, skp.Total)),
		}
	}
	f.Rows = append(f.Rows,
		row("Query execution", van.Exec, skp.Exec),
		row("FUSE file system", van.Fuse, skp.Fuse),
		row("Network access", van.Network, skp.Network),
		row("Total", van.Total, skp.Total),
	)
	return f, nil
}
