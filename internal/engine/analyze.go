package engine

import (
	"time"

	"repro/internal/tuple"
)

// EXPLAIN ANALYZE support: every operator carries a nil-by-default
// *OpStats pointer; with it nil (the always-on default) NextBatch pays
// one predictable branch and nothing else — no time.Now calls, no
// allocations. EnableAnalyze walks a built plan and arms each operator;
// ExplainAnalyze renders the plan with the measured per-operator
// rows/batches/bytes/time after the plan has been drained.
//
// Per-operator time is inclusive of children (each NextBatch call spans
// the child pulls it makes), matching what PostgreSQL's EXPLAIN ANALYZE
// reports as total time.

// OpStats accumulates one operator's EXPLAIN ANALYZE measurements.
type OpStats struct {
	// Batches and Rows count the operator's output.
	Batches int64
	Rows    int64
	// Bytes is the logical size of the output values (8 bytes per
	// numeric, string payload length for strings).
	Bytes int64
	// Time is total time spent inside NextBatch, inclusive of children.
	Time time.Duration
}

// observe folds one NextBatch call into the stats.
func (o *OpStats) observe(d time.Duration, b *tuple.Batch, ok bool) {
	o.Time += d
	if !ok || b == nil {
		return
	}
	o.Batches++
	o.Rows += int64(b.Len())
	o.Bytes += batchLogicalBytes(b)
}

// batchLogicalBytes estimates the logical payload size of a batch.
func batchLogicalBytes(b *tuple.Batch) int64 {
	var total int64
	for c, col := range b.Schema().Cols {
		total += b.Col(c).Size(col.Kind, b.Len())
	}
	return total
}

// timedBatch runs one armed NextBatch call and records it. Only the
// analyze path reaches here, so the method-value allocation for fn is
// never paid when analysis is off.
func timedBatch(st *OpStats, fn func() (*tuple.Batch, bool, error)) (*tuple.Batch, bool, error) {
	t0 := time.Now()
	b, ok, err := fn()
	st.observe(time.Since(t0), b, ok)
	return b, ok, err
}

func (s *SeqScan) opStats() **OpStats  { return &s.ostats }
func (f *Filter) opStats() **OpStats   { return &f.ostats }
func (pr *Project) opStats() **OpStats { return &pr.ostats }
func (l *Limit) opStats() **OpStats    { return &l.ostats }
func (d *Distinct) opStats() **OpStats { return &d.ostats }
func (v *Values) opStats() **OpStats   { return &v.ostats }
func (j *HashJoin) opStats() **OpStats { return &j.ostats }
func (a *HashAgg) opStats() **OpStats  { return &a.ostats }
func (s *Sort) opStats() **OpStats     { return &s.ostats }

// EnableAnalyze arms every operator in the plan for measurement.
func EnableAnalyze(it Iterator) {
	walkPlan(it, func(n Iterator) {
		if p, ok := n.(planNode); ok {
			if slot := p.opStats(); *slot == nil {
				*slot = &OpStats{}
			}
		}
	})
}

// ExplainAnalyze renders the plan tree with per-operator measurements —
// the EXPLAIN ANALYZE output. Operators that were never armed (or a
// plan rendered before draining) show zeros.
func ExplainAnalyze(it Iterator) string { return renderPlan(it, true) }
