package engine

// LabelSpy is a pass-through plan node for tests outside the package: it
// counts how often a plan utility asks it for its EXPLAIN label.
type LabelSpy struct {
	Iterator
	Calls  int
	ostats *OpStats
}

func (s *LabelSpy) label() string        { s.Calls++; return "LabelSpy" }
func (s *LabelSpy) children() []Iterator { return []Iterator{s.Iterator} }
func (s *LabelSpy) opStats() **OpStats   { return &s.ostats }

// HashJoins returns every HashJoin of the plan rooted at it, parents first.
func HashJoins(it Iterator) []*HashJoin {
	var out []*HashJoin
	walkPlan(it, func(n Iterator) {
		if j, ok := n.(*HashJoin); ok {
			out = append(out, j)
		}
	})
	return out
}

// BuildColumns names the columns j keeps in its build store.
func BuildColumns(j *HashJoin) []string { return j.store.ColumnNames() }
