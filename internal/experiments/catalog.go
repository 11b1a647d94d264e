package experiments

import "fmt"

// Entry is one regenerable table: a paper figure or a feature report, under
// the id skipperbench's -fig / -report flags know it by.
type Entry struct {
	ID  string
	Run func() (*Figure, error)
	// Grid declares the entry's runs; nil for the tables a grid cannot
	// express (see the package comment).
	Grid func() (*Grid, error)
}

// Figures lists the paper's tables and figures in the order `-fig all`
// prints them.
func (p Params) Figures() []Entry {
	return []Entry{
		static("table1", Table1()),
		static("2", Figure2()),
		static("3", Figure3()),
		grid("4", p.figure4),
		grid("5", p.figure5),
		grid("7", p.figure7),
		{ID: "8", Run: p.Figure8},
		grid("9", p.figure9),
		{ID: "table3", Run: p.Table3},
		grid("10", p.figure10),
		grid("11a", p.figure11a),
		grid("11b", p.figure11b),
		grid("11c", p.figure11c),
		grid("12", p.figure12),
		grid("selectivity", p.selectivity),
	}
}

// Reports lists the feature reports in the order `-report all` prints them.
func (p Params) Reports() []Entry {
	return []Entry{
		grid("prune", p.pruneReport),
		{ID: "proj", Run: p.ProjectionReport},
		grid("cache", p.cacheReport),
		grid("pipeline", p.pipelineReport),
		grid("faults", p.faultReport),
		grid("scale", p.scaleReport),
	}
}

// Measure declares and measures the grid of the figure or report id.
func (p Params) Measure(id string) (*Matrix, error) {
	for _, e := range append(p.Figures(), p.Reports()...) {
		if e.ID == id && e.Grid != nil {
			return measure(e.Grid)
		}
	}
	return nil, fmt.Errorf("experiments: no grid has id %q", id)
}

func measure(declare func() (*Grid, error)) (*Matrix, error) {
	g, err := declare()
	if err != nil {
		return nil, err
	}
	return g.Measure()
}

func grid(id string, declare func() (*Grid, error)) Entry {
	return Entry{ID: id, Grid: declare, Run: func() (*Figure, error) {
		m, err := measure(declare)
		if err != nil {
			return nil, err
		}
		return m.Figure(), nil
	}}
}

// static is the entry of a table that runs nothing.
func static(id string, f *Figure) Entry {
	return Entry{ID: id, Run: func() (*Figure, error) { return f, nil }}
}
