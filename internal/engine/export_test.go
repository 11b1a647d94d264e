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
