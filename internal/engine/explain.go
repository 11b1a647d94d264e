package engine

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/stats"
)

// explainable lets operators describe themselves for plan display.
type explainable interface {
	explain() (label string, children []Iterator)
}

// Explain renders the operator tree as an indented plan, similar to
// EXPLAIN output in classical engines.
func Explain(it Iterator) string { return renderPlan(it, false) }

// renderPlan renders the plan tree, one operator per line, with each armed
// operator's EXPLAIN ANALYZE measurements when analyzed is set.
func renderPlan(it Iterator, analyzed bool) string {
	var sb strings.Builder
	var walk func(it Iterator, depth int)
	walk = func(it Iterator, depth int) {
		label := fmt.Sprintf("%T", it)
		var children []Iterator
		if e, ok := it.(explainable); ok {
			label, children = e.explain()
		}
		fmt.Fprintf(&sb, "%s-> %s", strings.Repeat("  ", depth), label)
		if a, ok := it.(analyzable); ok && analyzed {
			if st := *a.opStats(); st != nil {
				fmt.Fprintf(&sb, "  (rows=%d batches=%d bytes=%d time=%s)",
					st.Rows, st.Batches, st.Bytes, st.Time.Round(time.Microsecond))
			}
		}
		sb.WriteByte('\n')
		for _, c := range children {
			walk(c, depth+1)
		}
	}
	walk(it, 0)
	return sb.String()
}

func (s *SeqScan) explain() (string, []Iterator) {
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
	return label, nil
}

func (f *Filter) explain() (string, []Iterator) {
	return fmt.Sprintf("Filter %s", f.pred), []Iterator{f.child}
}

func (pr *Project) explain() (string, []Iterator) {
	parts := make([]string, len(pr.cols))
	for i, c := range pr.cols {
		parts[i] = fmt.Sprintf("%s=%s", c.Name, c.E)
	}
	return "Project " + strings.Join(parts, ", "), []Iterator{pr.child}
}

func (l *Limit) explain() (string, []Iterator) {
	return fmt.Sprintf("Limit %d", l.n), []Iterator{l.child}
}

func (v *Values) explain() (string, []Iterator) {
	return fmt.Sprintf("Values (%d rows)", len(v.rows)), nil
}

func (v *BatchValues) explain() (string, []Iterator) {
	rows := 0
	for _, b := range v.batches {
		rows += b.Len()
	}
	return fmt.Sprintf("Values (%d rows in %d batches)", rows, len(v.batches)), nil
}

// dopSuffix annotates parallel operators in plan displays; serial
// operators stay unmarked so DOP=1 plans render exactly as before.
func dopSuffix(dop int) string {
	if dop > 1 {
		return fmt.Sprintf(" [dop=%d]", dop)
	}
	return ""
}

func (j *HashJoin) explain() (string, []Iterator) {
	pairs := make([]string, len(j.leftKeys))
	for i := range j.leftKeys {
		pairs[i] = fmt.Sprintf("%s=%s",
			j.left.Schema().Cols[j.leftKeys[i]].Name,
			j.right.Schema().Cols[j.rightKeys[i]].Name)
	}
	return "HashJoin on " + strings.Join(pairs, ", ") + dopSuffix(j.dop), []Iterator{j.left, j.right}
}

func (a *HashAgg) explain() (string, []Iterator) {
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
	return "HashAgg " + strings.Join(parts, ", ") + dopSuffix(a.dop), []Iterator{a.child}
}

func (s *Sort) explain() (string, []Iterator) {
	parts := make([]string, len(s.keys))
	for i, k := range s.keys {
		dir := "asc"
		if k.Desc {
			dir = "desc"
		}
		parts[i] = fmt.Sprintf("%s %s", k.E, dir)
	}
	return "Sort " + strings.Join(parts, ", "), []Iterator{s.child}
}
