package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/faults"
	"repro/internal/lattice"
	"repro/internal/layout"
	"repro/internal/metrics"
	"repro/internal/skipper"
)

// A Grid declares one experiment: the same run repeated with one setting
// varied. Each row is a point of the sweep and each series one run of every
// row (vanilla / Skipper / ideal, data skipping on / off); a column reads
// one number off one series' run of every row. Measure runs the grid into a
// Matrix, which the Figure renderer, the shape tests and the root benchmarks
// all read.
type Grid struct {
	ID, Title string
	// Keys heads the label columns every row leads with (Row.Keys).
	Keys []string
	// Base is the cell every run starts from; rows and series change it.
	Base lattice.Cell
	Rows []Row
	// Series are the runs of every row, in order; a nil Change runs the
	// row as it is, and nil Series is one such run.
	Series  []Change
	Columns []Column
	Notes   []string
	// Check, when set, holds the measured matrix to what the table claims;
	// its error fails the measurement.
	Check func(*Matrix) error
}

// A Row is one point of a grid: its labels, what it changes on the base
// cell, and its workload, which Workload hands each of the row's runs anew
// (a Change may set its layout).
type Row struct {
	Keys     []string
	Change   Change
	Workload func() (lattice.Workload, error)
}

// A Change sets what a row or series studies on a run's cell and workload.
type Change func(*lattice.Cell, *lattice.Workload)

// A Column reads one number off one series' run of every row and prints it.
type Column struct {
	Header string
	Series int
	Read   Reader
	// Show prints the column's cells; nil keeps the column in the matrix
	// only (a number a check or a test reads, or another column prints).
	Show Printer
}

// A Reader reads one number off a run. Times read as nanoseconds, the
// unit of time.Duration, so every duration in a matrix is exact.
type Reader func(*skipper.RunResult) float64

// A Printer prints the number v at row r of a column. It is handed the
// matrix for the few cells that print themselves against another row or
// column, or spell out what the number sums (a per-device split).
type Printer func(m *Matrix, r int, v float64) string

// Matrix is a measured grid: one number per row and column, and the runs
// they were read from.
type Matrix struct {
	grid *Grid
	vals [][]float64
	// runs holds each row's runs, by series.
	runs [][]*skipper.RunResult
}

// Measure runs every row of the grid once per series, in order, and reads
// every column; a grid with a Check fails when its matrix does.
func (g *Grid) Measure() (*Matrix, error) {
	series := g.Series
	if series == nil {
		series = []Change{nil}
	}
	m := &Matrix{grid: g}
	for _, row := range g.Rows {
		runs := make([]*skipper.RunResult, len(series))
		for s, change := range series {
			w, err := row.Workload()
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %w", g.ID, strings.Join(row.Keys, " "), err)
			}
			cell := g.Base
			for _, ch := range []Change{row.Change, change} {
				if ch != nil {
					ch(&cell, &w)
				}
			}
			if runs[s], err = cell.Run(w); err != nil {
				return nil, fmt.Errorf("%s: %s (%v): %w", g.ID, strings.Join(row.Keys, " "), cell, err)
			}
		}
		vals := make([]float64, len(g.Columns))
		for c, col := range g.Columns {
			vals[c] = col.Read(runs[col.Series])
		}
		m.vals, m.runs = append(m.vals, vals), append(m.runs, runs)
	}
	if g.Check != nil {
		if err := g.Check(m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// once measures one run of the base cell over the workload and reads it.
func once(base lattice.Cell, workload func() (lattice.Workload, error), read Reader) (float64, error) {
	m, err := (&Grid{Base: base, Rows: []Row{{Workload: workload}}, Columns: []Column{{Read: read}}}).Measure()
	if err != nil {
		return 0, err
	}
	return m.vals[0][0], nil
}

// Len is the number of rows.
func (m *Matrix) Len() int { return len(m.vals) }

// Keys returns row r's labels.
func (m *Matrix) Keys(r int) []string { return m.grid.Rows[r].Keys }

// At returns the number of row r under the column headed col.
func (m *Matrix) At(r int, col string) float64 { return m.vals[r][m.column(col)] }

// Col returns the column headed col, one number per row.
func (m *Matrix) Col(col string) []float64 {
	c := m.column(col)
	out := make([]float64, len(m.vals))
	for r := range m.vals {
		out[r] = m.vals[r][c]
	}
	return out
}

func (m *Matrix) column(header string) int {
	for c, col := range m.grid.Columns {
		if col.Header == header {
			return c
		}
	}
	panic(fmt.Sprintf("experiments: %s has no column %q", m.grid.ID, header))
}

// Figure renders the matrix: each row's keys, then every shown column.
func (m *Matrix) Figure() *Figure {
	g := m.grid
	f := &Figure{ID: g.ID, Title: g.Title, Columns: append([]string(nil), g.Keys...), Notes: g.Notes}
	for _, col := range g.Columns {
		if col.Show != nil {
			f.Columns = append(f.Columns, col.Header)
		}
	}
	for r, row := range g.Rows {
		cells := append([]string(nil), row.Keys...)
		for c, col := range g.Columns {
			if col.Show != nil {
				cells = append(cells, col.Show(m, r, m.vals[r][c]))
			}
		}
		f.Rows = append(f.Rows, cells)
	}
	return f
}

// The printers the grids share.
var (
	seconds Printer = func(_ *Matrix, _ int, v float64) string { return secs(time.Duration(v)) }
	count   Printer = func(_ *Matrix, _ int, v float64) string { return fmt.Sprint(int64(v)) }
	// percent prints a ratio in [0, 1] as a whole percentage.
	percent Printer = func(_ *Matrix, _ int, v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }
	// millis prints a duration in milliseconds, to the microsecond.
	millis Printer = func(_ *Matrix, _ int, v float64) string {
		return fmt.Sprintf("%.1f", float64(time.Duration(v).Microseconds())/1000)
	}
)

// fixed prints a plain number with prec decimals.
func fixed(prec int) Printer {
	return func(_ *Matrix, _ int, v float64) string { return fmt.Sprintf("%.*f", prec, v) }
}

// shareOf prints a duration as a percentage of the row's total column.
func shareOf(total string) Printer {
	return func(m *Matrix, r int, v float64) string {
		return fmt.Sprintf("%.1f%%", metrics.Percent(time.Duration(v), time.Duration(m.At(r, total))))
	}
}

// The readers every grid shares, over the run as a whole: counters of the
// fleet's devices and injectors, and client counters summed or averaged
// over the clients.
var (
	makespan   Reader = func(res *skipper.RunResult) float64 { return float64(res.Makespan) }
	wall       Reader = func(res *skipper.RunResult) float64 { return float64(res.Wall) }
	deviceGets Reader = func(res *skipper.RunResult) float64 { return float64(res.CSD.GetsReceived) }
	switches   Reader = func(res *skipper.RunResult) float64 { return float64(res.CSD.GroupSwitches) }
	coalesced  Reader = func(res *skipper.RunResult) float64 { return float64(res.CSD.GetsCoalesced) }
	crashes    Reader = func(res *skipper.RunResult) float64 { return float64(res.CSD.Crashes) }
	restarts   Reader = func(res *skipper.RunResult) float64 { return float64(res.CSD.Restarts) }
	cacheHits  Reader = func(res *skipper.RunResult) float64 {
		if res.Cache == nil {
			return 0
		}
		return float64(res.Cache.Hits)
	}
	hitRatio Reader = func(res *skipper.RunResult) float64 {
		if res.Cache == nil {
			return 0
		}
		return metrics.HitRatio(res.Cache.Hits, res.Cache.Misses)
	}
	transient = injected(func(st faults.Stats) int64 { return st.Transient })
	stalls    = injected(func(st faults.Stats) int64 { return st.Stalls })
	corrupt   = injected(func(st faults.Stats) int64 { return st.Corrupt })

	cumClient      = clients(func(cs *skipper.ClientStats) int64 { return int64(cs.Elapsed()) })
	avgClient      = perClient(cumClient)
	gets           = perClient(clients(func(cs *skipper.ClientStats) int64 { return int64(cs.GetsIssued) }))
	prefetchIssued = clients(func(cs *skipper.ClientStats) int64 { return int64(cs.PrefetchIssued) })
	prefetchServed = clients(func(cs *skipper.ClientStats) int64 { return int64(cs.PrefetchServed) })
	prefetchUseful = clients(func(cs *skipper.ClientStats) int64 { return int64(cs.PrefetchUseful) })
	retries        = clients(func(cs *skipper.ClientStats) int64 { return int64(cs.Retries) })
	backoff        = clients(func(cs *skipper.ClientStats) int64 { return int64(cs.RetryBackoff) })
	failovers      = clients(func(cs *skipper.ClientStats) int64 { return int64(cs.Failovers) })
)

// The readers of a one-client run (the data-skipping sweeps): what its
// client skipped, issued, returned and took.
var (
	skipped = client0(func(cs *skipper.ClientStats) float64 { return float64(cs.SegmentsSkipped) })
	issued  = client0(func(cs *skipper.ClientStats) float64 { return float64(cs.GetsIssued) })
	rows    = client0(func(cs *skipper.ClientStats) float64 { return float64(cs.Rows) })
	elapsed = client0(func(cs *skipper.ClientStats) float64 { return float64(cs.Elapsed()) })
	// avoided is the share of the query's segment requests that data
	// skipping never issued.
	avoided = client0(func(cs *skipper.ClientStats) float64 {
		return metrics.PruneRatio(cs.GetsIssued, cs.SegmentsSkipped)
	})
)

// breakdown reads one part of a run's Figure 9 split, averaged over its
// clients: each client's stall windows cut by the device's switch windows.
func breakdown(part func(metrics.Breakdown) time.Duration) Reader {
	return func(res *skipper.RunResult) float64 {
		var sum time.Duration
		for _, cs := range res.Clients {
			sum += part(metrics.Compute(cs.Elapsed(), cs.Processing, cs.Fuse, cs.StallIntervals, res.CSD.SwitchIntervals))
		}
		return float64(sum / time.Duration(len(res.Clients)))
	}
}

// stretch reads a run's per-query stretches over the ideal per-query time,
// folded by agg (§5.2.5).
func stretch(ideal time.Duration, agg func([]float64) float64) Reader {
	return func(res *skipper.RunResult) float64 {
		var s []float64
		for _, cs := range res.Clients {
			for _, qr := range cs.PerQuery {
				s = append(s, metrics.Stretch(qr.Finish-qr.Start, ideal))
			}
		}
		return agg(s)
	}
}

// clients reads a client counter summed over the run's clients.
func clients(f func(*skipper.ClientStats) int64) Reader {
	return func(res *skipper.RunResult) float64 {
		var sum int64
		for _, cs := range res.Clients {
			sum += f(cs)
		}
		return float64(sum)
	}
}

// perClient divides a summed client counter by the clients, in integers.
func perClient(sum Reader) Reader {
	return func(res *skipper.RunResult) float64 { return float64(int64(sum(res)) / int64(len(res.Clients))) }
}

func client0(f func(*skipper.ClientStats) float64) Reader {
	return func(res *skipper.RunResult) float64 { return f(res.Clients[0]) }
}

// injected reads a fault count summed over the fleet's injectors.
func injected(f func(faults.Stats) int64) Reader {
	return func(res *skipper.RunResult) float64 {
		var sum int64
		for _, st := range res.Faults {
			sum += f(st)
		}
		return float64(sum)
	}
}

// The changes the grids vary.

// useEngine runs the given engine.
func useEngine(mode skipper.Mode) Change {
	return func(c *lattice.Cell, _ *lattice.Workload) { c.Mode = mode }
}

// ideal is the paper's HDD reference: the vanilla engine with every
// tenant in one group, so no switch is ever paid.
func ideal(c *lattice.Cell, w *lattice.Workload) {
	c.Mode, w.Layout = skipper.ModeVanilla, layout.AllInOne{}
}

// engines are both engines, vanilla first; vanillaSkipper is the series
// pair of most of the paper's figures.
var (
	engines        = []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper}
	vanillaSkipper = []Change{useEngine(skipper.ModeVanilla), useEngine(skipper.ModeSkipper)}
)

// fixedWorkload is a row workload that every run shares.
func fixedWorkload(w lattice.Workload) func() (lattice.Workload, error) {
	return func() (lattice.Workload, error) { return w, nil }
}
