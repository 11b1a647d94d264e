// Command skipperbench regenerates any table or figure of the paper's
// evaluation on the simulated testbed, and the feature reports that grew
// beside them.
//
// Usage:
//
//	skipperbench -fig all              # every paper figure (slow)
//	skipperbench -fig 7                # Figure 7 only
//	skipperbench -fig table3 -quick    # reduced-scale smoke run
//	skipperbench -report cache -quick  # one feature report
//	skipperbench -report all -quick    # every feature report
//	skipperbench -format v2 -fig 9     # serve columnar (v2) encoded objects
//	skipperbench -trace                # a 3-client run's device lane as a span tree
//
// Figures: table1, 2, 3, 4, 5, 7, 8, 9, table3, 10, 11a, 11b, 11c, 12,
// selectivity (the data-skipping sweep — ours, not the paper's); -h lists
// them, and the reports, from experiments.Figures and Reports.
//
// Reports (-report takes a comma-separated list, or all):
//
//	prune     segments fetched vs skipped with data skipping on and off,
//	          join+agg and Q5-style selective workloads, both engines
//	proj      bytes fetched vs decoded vs skipped-by-projection and scan-side
//	          decode time over v2 segments, every column vs projected
//	cache     shared segment cache budget sweep over a repeated-query
//	          multi-tenant workload: device GETs, switches, coalesced
//	          transfers, hits and timings per budget
//	pipeline  scheduler-aware prefetch off/on per engine: simulated makespan,
//	          device GETs, switches and prefetch counters, plus host wall time
//	faults    fault-rate sweep plus a crash/restart scenario: makespan
//	          degradation, extra device GETs, retries, backoff
//	scale     makespan per fleet size, then a device-0 crash with and
//	          without hot replication; fails unless the replicated fleet
//	          fails over and degrades strictly less than the unreplicated one
//
// A report measures; it does not gate. That no setting changes what a
// query returns, and that no GET is lost, is held by the lattice harness
// (go test ./internal/lattice ./internal/skipper).
//
// -format selects the wire format the CSD store serves for figure runs:
// mem (in-memory segments, no decode work — the default) or v2.
// Simulated timings are format-independent; real runtime and the byte
// accounting are not.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/lattice"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ids lists the entries' ids for a flag's help.
func ids(entries []experiments.Entry) string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.ID
	}
	return strings.Join(out, ",")
}

func main() {
	figArg := flag.String("fig", "all", "comma-separated figure ids ("+ids(experiments.Default().Figures())+") or 'all'")
	quick := flag.Bool("quick", false, "use the reduced-scale configuration")
	sf := flag.Int("sf", 0, "override TPC-H scale factor")
	outFmt := flag.String("out", "table", "output format: table or csv")
	showTrace := flag.Bool("trace", false, "run a small 3-client scenario and print its device span tree instead of figures")
	reportArg := flag.String("report", "", "comma-separated feature reports ("+ids(experiments.Default().Reports())+") or 'all'; runs instead of -fig")
	rows := flag.Int("rows", 0, "override rows per 1 GB object (more rows = more decode work per object)")
	segFormat := flag.String("format", "mem", "segment wire format served by the CSD store: mem or v2")
	flag.Parse()

	if *showTrace {
		runTraceDemo()
		return
	}

	p := experiments.Default()
	if *quick {
		p = experiments.Quick()
	}
	if *sf > 0 {
		p.SF = *sf
	}
	if *rows > 0 {
		p.RowsPerObject = *rows
	}
	wireFmt, err := segment.ParseFormat(*segFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skipperbench: %v\n", err)
		os.Exit(2)
	}
	p.Format = wireFmt

	all, arg := p.Figures(), *figArg
	if *reportArg != "" {
		all, arg = p.Reports(), *reportArg
	}

	want := map[string]bool{}
	runAll := arg == "all"
	for _, id := range strings.Split(arg, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}

	matched := false
	for _, e := range all {
		if !runAll && !want[e.ID] {
			continue
		}
		matched = true
		f, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "skipperbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if *outFmt == "csv" {
			fmt.Printf("# %s: %s\n%s\n", f.ID, f.Title, f.CSV())
		} else {
			fmt.Println(f)
		}
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "skipperbench: no figure or report matched %q\n", arg)
		os.Exit(2)
	}
}

// runTraceDemo executes a 3-client Skipper run with a device recorder
// attached and prints what the device did as a span tree — every transfer
// from its GET to its delivery, every group switch — then each tenant's
// query span and the totals the spans must add up to.
func runTraceDemo() {
	var tenants []lattice.Tenant
	store := make(map[segment.ObjectID]*segment.Segment)
	for t := 0; t < 3; t++ {
		ds := workload.TPCH(t, workload.TPCHConfig{SF: 3, RowsPerObject: 6, Seed: 1})
		ds.MergeInto(store)
		tenants = append(tenants, lattice.Tenant{Catalog: ds.Catalog, Queries: []skipper.QuerySpec{workload.Q12(ds.Catalog)}})
	}
	cl := lattice.Cell{Mode: skipper.ModeSkipper, MJoinCache: 8}.Cluster(lattice.Workload{Store: store, Tenants: tenants})
	rec := trace.NewQueryTrace("device", -1, "")
	cl.Fleet.Device.Trace = rec
	res, err := cl.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "skipperbench: trace demo: %v\n", err)
		os.Exit(1)
	}
	rec.ExportTrace().Render(os.Stdout)
	fmt.Println()
	for _, cs := range res.Clients {
		for _, q := range cs.PerQuery {
			fmt.Printf("t%d %-24s %.1fs .. %.1fs (%.1fs)\n", cs.Tenant, q.QueryID, q.Start.Seconds(), q.Finish.Seconds(), (q.Finish - q.Start).Seconds())
		}
	}
	fmt.Printf("\nmakespan %.1fs, %d switches\n", res.Makespan.Seconds(), res.CSD.GroupSwitches)
}
