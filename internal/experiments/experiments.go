// Package experiments regenerates every table and figure of the paper's
// evaluation (§2, §3, §5). Each experiment returns typed data points plus
// a formatted text rendering; cmd/skipperbench and the benchmark suite are
// thin wrappers over these functions.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/csd"
	"repro/internal/lattice"
	"repro/internal/layout"
	"repro/internal/objstore"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/workload"
)

// mapStore is the shared object store backing a cluster run.
type mapStore = map[segment.ObjectID]*segment.Segment

// Params are the experiment-wide knobs, defaulting to the paper's setup.
type Params struct {
	// SF is the TPC-H scale factor (paper: 50).
	SF int
	// SF100 is the scale factor for the Figure 11c sweep (paper: 100).
	SF100 int
	// RowsPerObject controls tuple density. Timing is virtual, so this
	// only affects real runtime of the simulation; 8 keeps benches fast
	// while producing non-trivial join results.
	RowsPerObject int
	// GroupSwitch is the CSD group switch latency (paper default 10 s).
	GroupSwitch time.Duration
	// Bandwidth is the per-stream CSD transfer rate (100 MB/s ⇒ 10 s per
	// 1 GB object, Table 3).
	Bandwidth float64
	// CacheObjects is Skipper's MJoin cache in objects (paper: 30 GB).
	CacheObjects int
	// Seed drives the deterministic data generators.
	Seed int64
	// Format selects the segment wire format the CSD store serves.
	// FormatMem (the zero value) keeps the generator's in-memory
	// segments — no encode/decode work, the historical behaviour.
	// FormatV1/FormatV2 push every dataset through the object store and
	// serve lazily decoded segments, so scans perform (and account) real
	// per-access decode work; v2 additionally honours projection
	// pushdown. Query results are identical across formats — the
	// lattice harness's format axis enforces it.
	Format segment.Format
}

// encoded re-encodes a dataset per p.Format (no-op for FormatMem).
func (p Params) encoded(ds *workload.Dataset) (*workload.Dataset, error) {
	return objstore.ReencodeDataset(ds, p.Format)
}

// Default returns the paper's configuration.
func Default() Params {
	return Params{
		SF:            50,
		SF100:         100,
		RowsPerObject: 8,
		GroupSwitch:   10 * time.Second,
		Bandwidth:     100e6,
		CacheObjects:  30,
		Seed:          1,
	}
}

// Quick returns a scaled-down configuration for fast smoke tests.
func Quick() Params {
	return Params{
		SF:            8,
		SF100:         16,
		RowsPerObject: 6,
		GroupSwitch:   10 * time.Second,
		Bandwidth:     100e6,
		CacheObjects:  6,
		Seed:          1,
	}
}

// Figure is a rendered result table.
type Figure struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carries reproduction caveats surfaced with the data.
	Notes []string
}

// CSV renders the figure as comma-separated values (header + rows),
// suitable for plotting tools.
func (f *Figure) CSV() string {
	var sb strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cells := make([]string, len(f.Columns))
	for i, c := range f.Columns {
		cells[i] = esc(c)
	}
	sb.WriteString(strings.Join(cells, ","))
	sb.WriteByte('\n')
	for _, row := range f.Rows {
		cells = cells[:0]
		for _, c := range row {
			cells = append(cells, esc(c))
		}
		sb.WriteString(strings.Join(cells, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// String renders an aligned text table.
func (f *Figure) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", f.ID, f.Title)
	widths := make([]int, len(f.Columns))
	for i, c := range f.Columns {
		widths[i] = len(c)
	}
	for _, row := range f.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(f.Columns)
	for _, row := range f.Rows {
		writeRow(row)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// secs renders a duration as seconds with one decimal.
func secs(d time.Duration) string {
	return fmt.Sprintf("%.1f", d.Seconds())
}

// runSpec describes one cluster execution.
type runSpec struct {
	clients   int
	mode      skipper.Mode
	layoutPol layout.Policy
	scheduler csd.Scheduler
	order     csd.OrderKind
	switchLat time.Duration
	cache     int
	// dataset generates tenant i's database.
	dataset func(tenant int) *workload.Dataset
	// queries builds the per-tenant query list.
	queries func(cat *catalog.Catalog) []skipper.QuerySpec
	// repeat runs the query list this many times (0 or 1 = once).
	repeat int
}

// device is the CSD configuration of these params: the paper's defaults
// with the Params' switch latency and bandwidth.
func (p Params) device() csd.Config {
	cfg := csd.DefaultConfig()
	cfg.GroupSwitch = p.GroupSwitch
	cfg.Bandwidth = p.Bandwidth
	return cfg
}

// cell is the lattice cell these params run by default: the given engine
// with the Params' MJoin cache against one clean device, data
// skipping on. Every experiment starts from it and sets what it studies.
func (p Params) cell(mode skipper.Mode) lattice.Cell {
	return lattice.Cell{
		Mode: mode, MJoinCache: p.CacheObjects,
		Fleet: skipper.FleetSpec{Device: p.device()},
	}
}

// run executes a cluster per the spec and returns the result.
func (p Params) run(spec runSpec) (*skipper.RunResult, error) {
	w := lattice.Workload{Store: make(mapStore), Layout: spec.layoutPol}
	for t := 0; t < spec.clients; t++ {
		ds, err := p.encoded(spec.dataset(t))
		if err != nil {
			return nil, err
		}
		ds.MergeInto(w.Store)
		qs := spec.queries(ds.Catalog)
		if spec.repeat > 1 {
			var rep []skipper.QuerySpec
			for r := 0; r < spec.repeat; r++ {
				rep = append(rep, qs...)
			}
			qs = rep
		}
		w.Tenants = append(w.Tenants, lattice.Tenant{Catalog: ds.Catalog, Queries: qs})
	}
	cell := p.cell(spec.mode)
	cell.MJoinCache = spec.cache
	if spec.switchLat >= 0 {
		cell.Fleet.Device.GroupSwitch = spec.switchLat
	}
	if spec.scheduler != nil {
		cell.Fleet.Device.Scheduler = spec.scheduler
	}
	cell.Fleet.Device.Order = spec.order
	return cell.Run(w)
}

// avgElapsed returns the mean client workload time.
func avgElapsed(res *skipper.RunResult) time.Duration {
	if len(res.Clients) == 0 {
		return 0
	}
	var sum time.Duration
	for _, c := range res.Clients {
		sum += c.Elapsed()
	}
	return sum / time.Duration(len(res.Clients))
}

// cumElapsed returns the summed client workload time.
func cumElapsed(res *skipper.RunResult) time.Duration {
	var sum time.Duration
	for _, c := range res.Clients {
		sum += c.Elapsed()
	}
	return sum
}

// tpchDataset builds the per-tenant TPC-H generator for these params.
func (p Params) tpchDataset(sf int) func(int) *workload.Dataset {
	return func(tenant int) *workload.Dataset {
		return workload.TPCH(tenant, workload.TPCHConfig{SF: sf, RowsPerObject: p.RowsPerObject, Seed: p.Seed})
	}
}

func q12Queries(cat *catalog.Catalog) []skipper.QuerySpec {
	return []skipper.QuerySpec{workload.Q12(cat)}
}

func q5Queries(cat *catalog.Catalog) []skipper.QuerySpec {
	return []skipper.QuerySpec{workload.Q5(cat)}
}
