package experiments

// Entry is one regenerable table: a paper figure or a feature report, under
// the id skipperbench's -fig / -report flags know it by.
type Entry struct {
	ID  string
	Run func() (*Figure, error)
}

// Figures lists the paper's tables and figures in the order `-fig all`
// prints them.
func (p Params) Figures() []Entry {
	static := func(f *Figure) func() (*Figure, error) {
		return func() (*Figure, error) { return f, nil }
	}
	return []Entry{
		{"table1", static(Table1())},
		{"2", static(Figure2())},
		{"3", static(Figure3())},
		{"4", p.Figure4},
		{"5", p.Figure5},
		{"7", p.Figure7},
		{"8", p.Figure8},
		{"9", p.Figure9},
		{"table3", p.Table3},
		{"10", p.Figure10},
		{"11a", p.Figure11a},
		{"11b", p.Figure11b},
		{"11c", p.Figure11c},
		{"12", p.Figure12},
		{"selectivity", p.FigureSelectivity},
	}
}

// Reports lists the feature reports in the order `-report all` prints them.
func (p Params) Reports() []Entry {
	return []Entry{
		{"prune", p.PruneReport},
		{"proj", p.ProjectionReport},
		{"cache", p.CacheReport},
		{"pipeline", p.PipelineReport},
		{"faults", p.FaultReport},
		{"scale", p.ScaleReport},
	}
}
