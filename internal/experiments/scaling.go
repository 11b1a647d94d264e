package experiments

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/lattice"
	"repro/internal/layout"
	"repro/internal/skipper"
	"repro/internal/workload"
)

// Figure4Point is one x position of Figure 4.
type Figure4Point struct {
	Clients int
	CSD     time.Duration // vanilla engine on the CSD (1 group/client)
	HDD     time.Duration // vanilla engine on the HDD-like tier (1 group)
}

// Figure4Data measures vanilla PostgreSQL-style execution on CSD vs HDD
// as the client count grows (§3.2, TPC-H Q12, 10 s switch).
func (p Params) Figure4Data() ([]Figure4Point, error) {
	var out []Figure4Point
	for c := 1; c <= 5; c++ {
		csdRes, err := p.run(runSpec{
			clients: c, mode: skipper.ModeVanilla, switchLat: -1,
			dataset: p.tpchDataset(p.SF), queries: q12Queries,
		})
		if err != nil {
			return nil, err
		}
		hddRes, err := p.run(runSpec{
			clients: c, mode: skipper.ModeVanilla, switchLat: -1,
			layoutPol: layout.AllInOne{},
			dataset:   p.tpchDataset(p.SF), queries: q12Queries,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, Figure4Point{Clients: c, CSD: avgElapsed(csdRes), HDD: avgElapsed(hddRes)})
	}
	return out, nil
}

// Figure4 renders Figure 4.
func (p Params) Figure4() (*Figure, error) {
	pts, err := p.Figure4Data()
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:      "Figure 4",
		Title:   "Vanilla engine, avg exec time (s) vs number of clients (Q12, S=10s)",
		Columns: []string{"clients", "PostgreSQL-on-CSD", "PostgreSQL-on-HDD (ideal)"},
	}
	for _, pt := range pts {
		f.Rows = append(f.Rows, []string{fmt.Sprint(pt.Clients), secs(pt.CSD), secs(pt.HDD)})
	}
	return f, nil
}

// Figure5Point is one x position of Figure 5.
type Figure5Point struct {
	SwitchLatency time.Duration
	Avg           time.Duration
}

// Figure5Data measures the vanilla engine's sensitivity to the group
// switch latency with five clients (§3.2).
func (p Params) Figure5Data() ([]Figure5Point, error) {
	var out []Figure5Point
	for _, s := range []time.Duration{0, 5 * time.Second, 10 * time.Second, 15 * time.Second, 20 * time.Second} {
		res, err := p.run(runSpec{
			clients: 5, mode: skipper.ModeVanilla, switchLat: s,
			dataset: p.tpchDataset(p.SF), queries: q12Queries,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, Figure5Point{SwitchLatency: s, Avg: avgElapsed(res)})
	}
	return out, nil
}

// Figure5 renders Figure 5.
func (p Params) Figure5() (*Figure, error) {
	pts, err := p.Figure5Data()
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:      "Figure 5",
		Title:   "Vanilla engine, avg exec time (s) vs group switch latency (Q12, 5 clients)",
		Columns: []string{"switch latency (s)", "avg exec time (s)"},
	}
	for _, pt := range pts {
		f.Rows = append(f.Rows, []string{secs(pt.SwitchLatency), secs(pt.Avg)})
	}
	return f, nil
}

// Figure7Point is one x position of Figure 7.
type Figure7Point struct {
	Clients int
	Vanilla time.Duration
	Skipper time.Duration
	Ideal   time.Duration
}

// Figure7Data compares vanilla, Skipper and the HDD ideal as clients scale
// (§5.2.1): the benefit of out-of-order execution.
func (p Params) Figure7Data() ([]Figure7Point, error) {
	var out []Figure7Point
	for c := 1; c <= 5; c++ {
		van, err := p.run(runSpec{
			clients: c, mode: skipper.ModeVanilla, switchLat: -1,
			dataset: p.tpchDataset(p.SF), queries: q12Queries,
		})
		if err != nil {
			return nil, err
		}
		skp, err := p.run(runSpec{
			clients: c, mode: skipper.ModeSkipper, switchLat: -1, cache: p.CacheObjects,
			dataset: p.tpchDataset(p.SF), queries: q12Queries,
		})
		if err != nil {
			return nil, err
		}
		ideal, err := p.run(runSpec{
			clients: c, mode: skipper.ModeVanilla, switchLat: -1,
			layoutPol: layout.AllInOne{},
			dataset:   p.tpchDataset(p.SF), queries: q12Queries,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, Figure7Point{
			Clients: c,
			Vanilla: avgElapsed(van),
			Skipper: avgElapsed(skp),
			Ideal:   avgElapsed(ideal),
		})
	}
	return out, nil
}

// Figure7 renders Figure 7.
func (p Params) Figure7() (*Figure, error) {
	pts, err := p.Figure7Data()
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:      "Figure 7",
		Title:   "Avg exec time (s) vs clients: vanilla vs Skipper vs ideal (Q12, S=10s)",
		Columns: []string{"clients", "PostgreSQL", "Skipper", "Ideal"},
	}
	for _, pt := range pts {
		f.Rows = append(f.Rows, []string{fmt.Sprint(pt.Clients), secs(pt.Vanilla), secs(pt.Skipper), secs(pt.Ideal)})
	}
	return f, nil
}

// Figure8Point is one workload bar pair of Figure 8.
type Figure8Point struct {
	Workload string
	Vanilla  time.Duration
	Skipper  time.Duration
}

// Figure8IsolatedData runs each workload alone (one client, no group
// switches) — a supplementary baseline isolating per-workload costs from
// multi-tenant contention.
func (p Params) Figure8IsolatedData() ([]Figure8Point, error) {
	type wl struct {
		name    string
		dataset func(tenant int) *workload.Dataset
		queries func(cat *catalog.Catalog) []skipper.QuerySpec
	}
	wls := []wl{
		{"TPC-H", p.tpchDataset(p.SF), q12Queries},
		{"MR-Bench", func(t int) *workload.Dataset {
			return workload.MRBench(t, workload.MRBenchConfig{TotalGB: 20, RowsPerObject: p.RowsPerObject, Seed: p.Seed})
		}, func(cat *catalog.Catalog) []skipper.QuerySpec {
			return []skipper.QuerySpec{workload.MRJoinTask(cat)}
		}},
		{"NREF", func(t int) *workload.Dataset {
			return workload.NREF(t, workload.NREFConfig{TotalGB: 13, RowsPerObject: p.RowsPerObject, Seed: p.Seed})
		}, func(cat *catalog.Catalog) []skipper.QuerySpec {
			return []skipper.QuerySpec{workload.NREFJoin(cat)}
		}},
		{"SSB", func(t int) *workload.Dataset {
			return workload.SSB(t, workload.SSBConfig{SF: p.SF, RowsPerObject: p.RowsPerObject, Seed: p.Seed})
		}, func(cat *catalog.Catalog) []skipper.QuerySpec {
			return []skipper.QuerySpec{workload.SSBQ1(cat)}
		}},
	}
	var out []Figure8Point
	for _, w := range wls {
		van, err := p.run(runSpec{
			clients: 1, mode: skipper.ModeVanilla, switchLat: -1, repeat: 5,
			dataset: w.dataset, queries: w.queries,
		})
		if err != nil {
			return nil, fmt.Errorf("%s vanilla: %w", w.name, err)
		}
		skp, err := p.run(runSpec{
			clients: 1, mode: skipper.ModeSkipper, switchLat: -1, repeat: 5, cache: p.CacheObjects,
			dataset: w.dataset, queries: w.queries,
		})
		if err != nil {
			return nil, fmt.Errorf("%s skipper: %w", w.name, err)
		}
		out = append(out, Figure8Point{Workload: w.name, Vanilla: cumElapsed(van), Skipper: cumElapsed(skp)})
	}
	return out, nil
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
// per workload under each engine.
func (p Params) Figure8Data() (map[string]Figure8Point, error) {
	out := make(map[string]Figure8Point)
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		w := lattice.Workload{Store: make(mapStore)}
		names := []string{"TPC-H", "MR-Bench", "NREF", "SSB"}
		for t := 0; t < 4; t++ {
			var ds *workload.Dataset
			var qs []skipper.QuerySpec
			switch t {
			case 0:
				ds = workload.TPCH(t, workload.TPCHConfig{SF: p.SF, RowsPerObject: p.RowsPerObject, Seed: p.Seed})
				qs = []skipper.QuerySpec{workload.Q12(ds.Catalog)}
			case 1:
				ds = workload.MRBench(t, workload.MRBenchConfig{TotalGB: 20, RowsPerObject: p.RowsPerObject, Seed: p.Seed})
				qs = []skipper.QuerySpec{workload.MRJoinTask(ds.Catalog)}
			case 2:
				ds = workload.NREF(t, workload.NREFConfig{TotalGB: 13, RowsPerObject: p.RowsPerObject, Seed: p.Seed})
				qs = []skipper.QuerySpec{workload.NREFJoin(ds.Catalog)}
			case 3:
				ds = workload.SSB(t, workload.SSBConfig{SF: p.SF, RowsPerObject: p.RowsPerObject, Seed: p.Seed})
				qs = []skipper.QuerySpec{workload.SSBQ1(ds.Catalog)}
			}
			ds.MergeInto(w.Store)
			var rep []skipper.QuerySpec
			for r := 0; r < 5; r++ {
				rep = append(rep, qs...)
			}
			w.Tenants = append(w.Tenants, lattice.Tenant{Catalog: ds.Catalog, Queries: rep})
		}
		res, err := p.cell(mode).Run(w)
		if err != nil {
			return nil, err
		}
		for t, cs := range res.Clients {
			pt := out[names[t]]
			pt.Workload = names[t]
			if mode == skipper.ModeVanilla {
				pt.Vanilla = cs.Elapsed()
			} else {
				pt.Skipper = cs.Elapsed()
			}
			out[names[t]] = pt
		}
	}
	return out, nil
}
