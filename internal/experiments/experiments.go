// Package experiments regenerates every table and figure of the paper's
// evaluation (§2, §3, §5) and the feature reports that grew beside them.
// cmd/skipperbench and the root benchmarks are thin wrappers over Figures,
// Reports and Measure.
//
// An experiment is a declared Grid, not code: rows of (labels, a change to
// the Params' base cell, a workload), series that run every row once each,
// and columns that read one number off one series' run through the reader
// table of grid.go. Grid.Measure runs it into one Matrix of numbers; the
// Figure renderer, the shape tests and the benchmarks all read that matrix,
// and a grid's Check gates it. Every run is lattice.Cell.Run. Adding a
// report is one grid declaration: a func() (*Grid, error) that names its
// rows, series and columns (add a reader if the table needs a number no
// reader gives), listed in Reports. Code stays only where a table is not
// one number per run: Table 1 and Figures 2-3 run nothing, Table 3's rows
// are the components of two runs, Figure 8 reads one four-tenant run per
// tenant, and the projection report drains pull plans.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/csd"
	"repro/internal/lattice"
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
	// RowsPerObject controls tuple density; timing is virtual, so this
	// only moves the host's runtime.
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
	// Format selects the segment wire format the CSD store serves:
	// FormatMem (the zero value) the generator's in-memory segments,
	// FormatV2 lazily decoded objects, whose scans do (and account) real
	// decode work. Results are identical across formats (the lattice
	// harness's format axis).
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
	p := Default()
	p.SF, p.SF100, p.RowsPerObject, p.CacheObjects = 8, 16, 6, 6
	return p
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
	for _, row := range append([][]string{f.Columns}, f.Rows...) {
		for i, cell := range row {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
			}
			sb.WriteString(cell)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// String renders an aligned text table.
func (f *Figure) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", f.ID, f.Title)
	table := append([][]string{f.Columns}, f.Rows...)
	widths := make([]int, len(f.Columns))
	for _, row := range table {
		for i, cell := range row[:min(len(row), len(widths))] {
			widths[i] = max(widths[i], len(cell))
		}
	}
	for _, row := range table {
		for i, cell := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
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

// cell is the lattice cell these params run by default: the given engine
// with the Params' MJoin cache against one clean device of the paper's
// defaults at the Params' switch latency and bandwidth, data skipping on.
// Every experiment starts from it and sets what it studies.
func (p Params) cell(mode skipper.Mode) lattice.Cell {
	dev := csd.DefaultConfig()
	dev.GroupSwitch, dev.Bandwidth = p.GroupSwitch, p.Bandwidth
	return lattice.Cell{Mode: mode, MJoinCache: p.CacheObjects, Fleet: skipper.FleetSpec{Device: dev}}
}
