package main

import (
	"fmt"
	"io"
	"math"
)

// compareReports prints, for every metric of every run both reports
// hold, the two values and their spread (|a-b| over the smaller), and
// returns the metrics that disagree: an end-to-end metric further apart
// than its bound, or an exact metric that differs at all. Per-layer
// timings and probes are printed so their spread is on record, but they
// carry no bound and cannot fail the comparison.
func compareReports(w io.Writer, a, b *report) []string {
	bounds := make(map[string]float64)
	for _, d := range endToEnd {
		bounds[d.Name] = d.Bound
	}
	exact := make(map[string]bool)
	for _, d := range exactMetrics {
		exact[d.Name] = true
	}
	other := make(map[string]*runReport)
	for i := range b.Runs {
		r := &b.Runs[i]
		other[fmt.Sprint(r.Workload, r.Traced)] = r
	}
	var bad []string
	fmt.Fprintf(w, "%-14s %-44s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "spread", "bound")
	for i := range a.Runs {
		ra := &a.Runs[i]
		rb := other[fmt.Sprint(ra.Workload, ra.Traced)]
		if rb == nil {
			continue
		}
		if ra.ResultDigest != rb.ResultDigest {
			bad = append(bad, ra.Workload+"/result_digest")
		}
		defs := endToEnd
		if ra.Traced {
			defs = perLayer
		}
		for _, d := range defs {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			spread := 0.0
			if m := math.Min(math.Abs(va), math.Abs(vb)); m > 0 {
				spread = math.Abs(va-vb) / m
			} else if va != vb {
				spread = math.Inf(1)
			}
			verdict, limit := "", "-"
			switch {
			case exact[d.Name]:
				limit = "exact"
				if va != vb {
					verdict = "  DIFFERS"
				}
			case !ra.Traced:
				limit = fmt.Sprintf("%.0f%%", 100*bounds[d.Name])
				if spread > bounds[d.Name] {
					verdict = "  DIFFERS"
				}
			}
			if verdict != "" {
				bad = append(bad, ra.Workload+"/"+d.Name)
			}
			fmt.Fprintf(w, "%-14s %-44s %14.6g %14.6g %8.2f%% %7s%s\n", ra.Workload, d.Name, va, vb, 100*spread, limit, verdict)
		}
	}
	return bad
}
