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
//	skipperbench -fig 9 -out csv       # one figure as CSV
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
//	          without full replication; fails unless the replicated fleet
//	          fails over and degrades strictly less than the unreplicated one
//
// A report measures; it does not gate. That no setting changes what a
// query returns, and that no GET is lost, is held by the lattice harness
// (go test ./internal/lattice ./internal/skipper).
//
// Every run serves its generated datasets as v2 objects, as skipperd and
// skipperql do, and decodes what it reads. -out takes table or csv; -sf
// and -rows take a positive override or 0 (the configuration's own); any
// other value exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/lattice"
	"repro/internal/objstore"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, writes to stdout and stderr, and
// returns the exit status — 2 for a usage error, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("skipperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	figArg := fs.String("fig", "all", "comma-separated figure ids ("+ids(experiments.Default().Figures())+") or 'all'")
	quick := fs.Bool("quick", false, "use the reduced-scale configuration")
	sf := fs.Int("sf", 0, "override TPC-H scale factor")
	outFmt := fs.String("out", "table", "output format: table or csv")
	showTrace := fs.Bool("trace", false, "run a small 3-client scenario and print its device span tree instead of figures")
	reportArg := fs.String("report", "", "comma-separated feature reports ("+ids(experiments.Default().Reports())+") or 'all'; runs instead of -fig")
	rows := fs.Int("rows", 0, "override rows per 1 GB object (more rows = more decode work per object)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2 // the flag package has printed why
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "skipperbench: "+format+"\n", a...)
		return 2
	}
	switch {
	case *outFmt != "table" && *outFmt != "csv":
		return usage("-out %q: want table or csv", *outFmt)
	case *sf < 0:
		return usage("-sf %d: want a positive override, or 0 for none", *sf)
	case *rows < 0:
		return usage("-rows %d: want a positive override, or 0 for none", *rows)
	}

	if *showTrace {
		if err := runTraceDemo(stdout); err != nil {
			fmt.Fprintf(stderr, "skipperbench: trace demo: %v\n", err)
			return 1
		}
		return 0
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
			fmt.Fprintf(stderr, "skipperbench: %s: %v\n", e.ID, err)
			return 1
		}
		if *outFmt == "csv" {
			fmt.Fprintf(stdout, "# %s: %s\n%s\n", f.ID, f.Title, f.CSV())
		} else {
			fmt.Fprintln(stdout, f)
		}
	}
	if !matched {
		return usage("no figure or report matched %q", arg)
	}
	return 0
}

// runTraceDemo executes a 3-client Skipper run over v2 objects, data
// skipping off as in the paper's figures, with a device recorder attached
// and prints what the device did as a span tree — every transfer from its
// GET to its delivery, every group switch — then each tenant's query span
// and the totals the spans must add up to.
func runTraceDemo(stdout io.Writer) error {
	var tenants []lattice.Tenant
	store := make(map[segment.ObjectID]*segment.Segment)
	for t := 0; t < 3; t++ {
		ds, err := objstore.ReencodeDataset(workload.TPCH(t, workload.TPCHConfig{SF: 3, RowsPerObject: 6, Seed: 1}), segment.FormatV2)
		if err != nil {
			return err
		}
		ds.MergeInto(store)
		tenants = append(tenants, lattice.Tenant{Catalog: ds.Catalog, Queries: []skipper.QuerySpec{workload.Q12(ds.Catalog)}})
	}
	cl := lattice.Cell{Options: skipper.Options{Mode: skipper.ModeSkipper, CacheObjects: 8, NoStatsPruning: true}}.Cluster(lattice.Workload{Store: store, Tenants: tenants})
	rec := trace.NewQueryTrace("device", -1, "")
	cl.Fleet.Device.Trace = rec
	res, err := cl.Run()
	if err != nil {
		return err
	}
	rec.ExportTrace().Render(stdout)
	fmt.Fprintln(stdout)
	for _, cs := range res.Clients {
		for _, q := range cs.PerQuery {
			fmt.Fprintf(stdout, "t%d %-24s %.1fs .. %.1fs (%.1fs)\n", cs.Tenant, q.QueryID, q.Start.Seconds(), q.Finish.Seconds(), (q.Finish - q.Start).Seconds())
		}
	}
	fmt.Fprintf(stdout, "\nmakespan %.1fs, %d switches\n", res.Makespan.Seconds(), res.CSD.GroupSwitches)
	return nil
}
