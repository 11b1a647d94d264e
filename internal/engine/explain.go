package engine

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/stats"
)

// planNode is what every operator of this package tells the plan
// utilities about itself. An Iterator from elsewhere (a test double) is a
// leaf they cannot see into.
type planNode interface {
	// label renders the operator's EXPLAIN line. It formats column lists
	// and predicates and counts pruned segments, so only renderPlan calls
	// it; walking a plan reads children alone.
	label() string
	// children returns the operator's inputs, left to right.
	children() []Iterator
	// opStats exposes the operator's EXPLAIN ANALYZE slot.
	opStats() **OpStats
}

func (s *SeqScan) children() []Iterator  { return nil }
func (f *Filter) children() []Iterator   { return []Iterator{f.child} }
func (pr *Project) children() []Iterator { return []Iterator{pr.child} }
func (l *Limit) children() []Iterator    { return []Iterator{l.child} }
func (d *Distinct) children() []Iterator { return []Iterator{d.child} }
func (v *Values) children() []Iterator   { return nil }
func (j *HashJoin) children() []Iterator { return []Iterator{j.left, j.right} }
func (a *HashAgg) children() []Iterator  { return []Iterator{a.child} }
func (s *Sort) children() []Iterator     { return []Iterator{s.child} }

// walkPlan calls visit on every operator of the plan rooted at n.
func walkPlan(n Iterator, visit func(n Iterator)) {
	visit(n)
	if p, ok := n.(planNode); ok {
		for _, c := range p.children() {
			walkPlan(c, visit)
		}
	}
}

// SeqScans returns every SeqScan leaf of the plan rooted at it. Callers use
// it to read per-scan counters — e.g. SegmentsSkipped — after a plan has
// been drained.
func SeqScans(it Iterator) []*SeqScan {
	var out []*SeqScan
	walkPlan(it, func(n Iterator) {
		if s, ok := n.(*SeqScan); ok {
			out = append(out, s)
		}
	})
	return out
}

// Parallelize returns it unchanged: every plan runs serially on the
// caller's goroutine. It remains only because the benchmark module calls
// it, and goes when that module stops doing so.
func Parallelize(it Iterator, _ int) Iterator { return it }

// Explain renders the operator tree as an indented plan, similar to
// EXPLAIN output in classical engines.
func Explain(it Iterator) string { return renderPlan(it, false) }

// renderPlan renders the plan tree, one operator per line, with each armed
// operator's EXPLAIN ANALYZE measurements when analyzed is set.
func renderPlan(it Iterator, analyzed bool) string {
	var sb strings.Builder
	var walk func(it Iterator, depth int)
	walk = func(it Iterator, depth int) {
		n, ok := it.(planNode)
		if !ok {
			fmt.Fprintf(&sb, "%s-> %T\n", strings.Repeat("  ", depth), it)
			return
		}
		fmt.Fprintf(&sb, "%s-> %s", strings.Repeat("  ", depth), n.label())
		if st := *n.opStats(); analyzed && st != nil {
			fmt.Fprintf(&sb, "  (rows=%d batches=%d bytes=%d time=%s)",
				st.Rows, st.Batches, st.Bytes, st.Time.Round(time.Microsecond))
		}
		sb.WriteByte('\n')
		for _, c := range n.children() {
			walk(c, depth+1)
		}
	}
	walk(it, 0)
	return sb.String()
}

func (s *SeqScan) label() string {
	label := fmt.Sprintf("SeqScan %s (%d segments, %d rows)", s.table.Name, len(s.table.Objects), s.table.RowCount)
	if s.Pruner != nil {
		total := len(s.table.Objects)
		label += fmt.Sprintf(" [prune %d/%d segments on %s]",
			stats.CountSkipped(s.Pruner, total), total, s.Pruner.Predicate())
	}
	if s.Project != nil {
		names := make([]string, len(s.Project))
		for i, ci := range s.Project {
			names[i] = s.table.Schema.Cols[ci].Name
		}
		label += fmt.Sprintf(" [project %d/%d cols: %s]",
			len(s.Project), s.table.Schema.Len(), strings.Join(names, ","))
	}
	if s.Filter != nil {
		label += fmt.Sprintf(" [filter %s]", s.Filter)
	}
	return label
}

func (f *Filter) label() string { return fmt.Sprintf("Filter %s", f.pred) }

func (pr *Project) label() string {
	parts := make([]string, len(pr.cols))
	for i, c := range pr.cols {
		parts[i] = fmt.Sprintf("%s=%s", c.Name, c.E)
	}
	return "Project " + strings.Join(parts, ", ")
}

func (l *Limit) label() string { return fmt.Sprintf("Limit %d", l.n) }

func (d *Distinct) label() string { return "Distinct" }

func (v *Values) label() string { return fmt.Sprintf("Values (%d rows)", len(v.rows)) }

func (j *HashJoin) label() string {
	pairs := make([]string, len(j.leftKeys))
	for i := range j.leftKeys {
		pairs[i] = fmt.Sprintf("%s=%s",
			j.left.Schema().Cols[j.leftKeys[i]].Name,
			j.right.Schema().Cols[j.rightKeys[i]].Name)
	}
	label := "HashJoin on " + strings.Join(pairs, ", ")
	if k, n := j.schema.Len(), j.left.Schema().Len()+j.right.Schema().Len(); k < n {
		label += fmt.Sprintf(" [carry %d/%d cols: %s]", k, n, strings.Join(j.schema.ColumnNames(), ","))
	}
	return label
}

func (a *HashAgg) label() string {
	var parts []string
	for _, g := range a.groups {
		parts = append(parts, "group:"+g.Name)
	}
	for _, spec := range a.aggs {
		if spec.Arg != nil {
			parts = append(parts, fmt.Sprintf("%s(%s)", spec.Kind, spec.Arg))
		} else {
			parts = append(parts, fmt.Sprintf("%s(*)", spec.Kind))
		}
	}
	return "HashAgg " + strings.Join(parts, ", ")
}

func (s *Sort) label() string {
	parts := make([]string, len(s.keys))
	for i, k := range s.keys {
		dir := "asc"
		if k.Desc {
			dir = "desc"
		}
		parts[i] = fmt.Sprintf("%s %s", k.E, dir)
	}
	return "Sort " + strings.Join(parts, ", ")
}
