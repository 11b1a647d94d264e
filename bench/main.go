// Command skipper-bench is the repository's benchmark: five workloads on
// both clocks (host wall time and the simulator's virtual time), layer
// probes and a traced pass. See README.md beside this file.
//
// The driver's form, from the repository root, one run per invocation:
//
//	bash bench/run.sh --workload serve-dash --seed 1 --seconds 12 --trace 0
//
// prints as the last line of standard output one JSON object with the
// keys correct, attempted, failed and metrics: every end-to-end metric
// with --trace 0, every per-layer metric with --trace 1. Without
// --workload and --trace it runs all five workloads, both passes each.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's contract: the last line of a single run.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runReport is one (workload, pass) entry of the full report.
type runReport struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	// Samples is the number of measured ops behind the timing metrics
	// (the untraced phase of a traced run).
	Samples      int     `json:"samples"`
	MeasuredS    float64 `json:"measured_s"`
	ResultDigest string  `json:"result_digest"`
	FirstError   string  `json:"first_error,omitempty"`
	SpanFile     string  `json:"span_file,omitempty"`
	result
}

// report is the full document: host facts and every run.
type report struct {
	Host struct {
		CPUs       int    `json:"cpus"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
		Commit     string `json:"commit"`
	} `json:"host"`
	Seed    int64       `json:"seed"`
	Scale   string      `json:"scale"`
	Seconds float64     `json:"seconds"`
	Runs    []runReport `json:"runs"`
}

func newReport(cfg *config) *report {
	r := &report{Seed: cfg.seed, Scale: cfg.scale.name, Seconds: cfg.seconds}
	r.Host.CPUs = runtime.NumCPU()
	r.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.Host.GoVersion = runtime.Version()
	// run.sh passes the commit when the checkout is a git repository (the
	// driver's is not).
	if r.Host.Commit = os.Getenv("BENCH_COMMIT"); r.Host.Commit == "" {
		r.Host.Commit = "unknown"
	}
	return r
}

// runWorkload sets one workload up and runs one pass over it.
func runWorkload(cfg *config, name string, traced bool) (*runReport, error) {
	setup, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	// The per-layer pass does not report setup_s and sets up once.
	repeats := cfg.scale.setupRepeats
	if traced {
		repeats = 1
	}
	inst, setupS, err := setUp(cfg, setup, repeats)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	defer inst.close()
	if err := inst.oracle(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := warmUp(inst); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rep := &runReport{Workload: name, Traced: traced}
	rep.Metrics = make(map[string]value)
	if !traced {
		p := runPhase(inst, cfg.seconds, false, false, nil)
		fillPhase(rep, p)
		// The other half of the set-up samples is taken a measured phase
		// later: the reference host changes speed by up to three tenths
		// every few seconds to minutes (a busy neighbour; a spin loop
		// shows the same), and samples taken in one burst share one speed.
		extra, more, err := setUp(cfg, setup, repeats)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		extra.close()
		setupS = append(setupS, more...)
		endToEndMetrics(rep, p, median(setupS))
		return rep, nil
	}

	// Per-layer pass: half the time untraced (the counters, which come
	// from public result structs and frames, and the reference
	// throughput), half with the benchmark's spans and the program's own
	// trace switch on, then the probes.
	plain := runPhase(inst, cfg.seconds/2, true, true, nil)
	fillPhase(rep, plain)
	origin := time.Now()
	spanRecs := make([]*spanRecorder, inst.conns)
	for c := range spanRecs {
		spanRecs[c] = newSpanRecorder(origin, c)
	}
	tr := runPhase(inst, cfg.seconds/2, false, false, spanRecs)
	rep.Attempted += tr.ops()
	rep.Failed += tr.failed()
	if rep.FirstError == "" {
		rep.FirstError = tr.firstErr()
	}
	probes, err := runProbes(cfg, inst.gen, inst.enc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	perLayerMetrics(rep, plain, tr, spanRecs, probes)
	if rep.SpanFile, err = writeSpans(cfg.outDir, name, spanRecs); err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// setUp sets the workload up n times, closes every instance but the last
// and returns that one with the seconds each set-up took.
func setUp(cfg *config, setup func(*config) (*instance, error), n int) (inst *instance, secs []float64, err error) {
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		if inst, err = setup(cfg); err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return inst, secs, nil
}

func fillPhase(rep *runReport, p *phase) {
	rep.Samples = p.ops()
	rep.MeasuredS = p.wall.Seconds()
	rep.Attempted = p.ops()
	rep.Failed = p.failed()
	rep.Correct = rep.Failed == 0
	rep.FirstError = p.firstErr()
	rep.ResultDigest = p.recs[0].digest
}

// tailQuantile is p99 for the serving workloads and p90 for the batch
// and ingest ones, whose runs hold too few ops for anything higher.
func tailQuantile(workload string) float64 {
	if strings.HasPrefix(workload, "serve-") {
		return 0.99
	}
	return 0.90
}

func endToEndMetrics(rep *runReport, p *phase, setupS float64) {
	ops := float64(p.ops())
	units := unitOf(endToEnd)
	set := func(name string, v float64) { rep.Metrics[name] = value{v, units[name]} }
	set("setup_s", setupS)
	set("alloc_mb_per_op", float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc)/1e6/ops)
	set("mallocs_per_op", float64(p.mem1.Mallocs-p.mem0.Mallocs)/ops)
}

// counterMetrics maps the counters the ops accumulate (whole units, see
// recorder.sum) to the per-op metrics they become.
var counterMetrics = []struct {
	metric, counter string
	scale           float64
}{
	{"virt_s_per_op", "virt_us", 1e-6},
	{"device_gets_per_op", "device_gets", 1},
	{"group_switches_per_op", "group_switches", 1},
	{"segment.decode_busy_ms_per_op", "decode_busy_ns", 1e-6},
	{"segment.bytes_decoded_per_op", "bytes_decoded", 1},
	{"segment.bytes_skipped_by_projection_per_op", "bytes_skipped_by_projection", 1},
	{"stats.segments_skipped_per_op", "segments_skipped", 1},
	{"mjoin.requests_per_op", "mjoin_requests", 1},
	{"mjoin.reissues_per_op", "mjoin_reissues", 1},
	{"mjoin.evictions_per_op", "mjoin_evictions", 1},
	{"mjoin.subplans_executed_per_op", "mjoin_subplans_executed", 1},
	{"mjoin.subplans_pruned_per_op", "mjoin_subplans_pruned", 1},
	{"csd.gets_coalesced_per_op", "gets_coalesced", 1},
	{"csd.objects_served_per_op", "objects_served", 1},
	{"csd.switch_virt_s_per_op", "switch_virt_us", 1e-6},
	{"skipper.stall_virt_s_per_op", "stall_virt_us", 1e-6},
	{"skipper.processing_virt_s_per_op", "processing_virt_us", 1e-6},
	{"skipper.gets_issued_per_op", "gets_issued", 1},
	{"skipper.cache_hits_per_op", "cache_hits", 1},
	{"server.rejected_per_op", "rejected", 1},
}

func perLayerMetrics(rep *runReport, plain, tr *phase, spanRecs []*spanRecorder, probes map[string]float64) {
	units := unitOf(perLayer)
	for _, d := range perLayer {
		rep.Metrics[d.Name] = value{0, d.Unit} // a layer the workload bypasses reads 0
	}
	set := func(name string, v float64) {
		if _, ok := units[name]; !ok {
			panic("bench: metric " + name + " is not declared in manifest.go")
		}
		rep.Metrics[name] = value{v, units[name]}
	}
	ops := float64(plain.ops())
	set("error_rate", float64(rep.Failed)/float64(rep.Attempted))
	walls := plain.walls()
	set("ops_per_s", plain.opsPerS())
	set("op_wall_p50_ms", percentile(walls, 0.50))
	set("op_wall_tail_ms", percentile(walls, tailQuantile(rep.Workload)))
	for _, c := range counterMetrics {
		set(c.metric, plain.perOp(c.counter)*c.scale)
	}
	set("stored_bytes_per_row", plain.ratio("stored_bytes", "stored_rows"))
	set("segcache.hit_ratio", plain.ratio("cache_hits", "gets_issued"))
	var exec, queue, wire []float64
	for _, r := range plain.recs {
		exec, queue, wire = append(exec, r.execUS...), append(queue, r.queueUS...), append(wire, r.wireUS...)
	}
	set("server.exec_wall_us_p50", median(exec))
	set("server.queue_us_p50", median(queue))
	set("server.wire_overhead_us_p50", median(wire))
	set("host.gc_cycles_per_op", float64(plain.mem1.NumGC-plain.mem0.NumGC)/ops)
	set("host.heap_peak_mb", float64(plain.heapPeak)/1e6)
	for name, v := range probes {
		set(name, v)
	}

	set("trace.overhead_pct", 100*(plain.opsPerS()-tr.opsPerS())/plain.opsPerS())
	var wall, un int64
	self := make(map[string]int64)
	for _, sr := range spanRecs {
		wall += sr.opWallNS
		un += sr.unattributed
		for p, ns := range sr.selfNS {
			self[p] += ns
		}
	}
	if wall > 0 {
		set("trace.unattributed_pct", 100*float64(un)/float64(wall))
	}
	for p, ns := range self {
		set(p+".self_ms_per_op", float64(ns)/1e6/float64(tr.ops()))
	}
}

func main() {
	var (
		seed      = flag.Int64("seed", 1, "seed for dataset generation and statement sequences")
		names     = flag.String("workload", "", "comma-separated workloads to run (default: all five)")
		scaleName = flag.String("scale", "full", "tiny or full")
		seconds   = flag.Float64("seconds", runSeconds, "length of one measured phase")
		trace     = flag.String("trace", "", "0 = end-to-end pass, 1 = per-layer pass (default: both)")
		notrace   = flag.Bool("notrace", false, "skip the per-layer pass")
		out       = flag.String("out", "", "write the full JSON report here (default bench/out/report.json)")
		agree     = flag.Bool("agree", false, "run everything twice and fail unless the two sets of runs agree")
		manifest  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return
	}
	if err := run(*seed, *names, *scaleName, *seconds, *trace, *notrace, *out, *agree); err != nil {
		fmt.Fprintln(os.Stderr, "skipper-bench:", err)
		os.Exit(1)
	}
}

func run(seed int64, names, scaleName string, seconds float64, trace string, notrace bool, out string, agree bool) error {
	sc, ok := scales[scaleName]
	if !ok {
		return fmt.Errorf("unknown scale %q (tiny or full)", scaleName)
	}
	// The benchmark runs from the repository root; everything it writes
	// stays under bench/out/.
	cfg := &config{seed: seed, scale: sc, seconds: seconds, outDir: filepath.Join("bench", "out")}
	var asked []string
	if names != "" {
		asked = strings.Split(names, ",")
	}
	for _, n := range asked {
		if _, ok := workloads[n]; !ok {
			return fmt.Errorf("unknown workload %q", n)
		}
	}
	var list []string
	for _, d := range workloadDefs {
		if asked == nil || slices.Contains(asked, d.Name) {
			list = append(list, d.Name)
		}
	}
	var passes []bool
	switch {
	case trace == "0" || (trace == "" && notrace):
		passes = []bool{false}
	case trace == "1":
		passes = []bool{true}
	case trace == "":
		passes = []bool{false, true}
	default:
		return fmt.Errorf("-trace takes 0 or 1, not %q", trace)
	}
	if out == "" {
		out = filepath.Join(cfg.outDir, "report.json")
	}

	a, err := runSuite(cfg, list, passes, false, os.Stdout, os.Stderr)
	if err != nil {
		return err
	}
	full := any(a)
	var disagreements []string
	if agree {
		b, err := runSuite(cfg, list, passes, true, os.Stdout, os.Stderr)
		if err != nil {
			return err
		}
		disagreements = compareReports(os.Stdout, a, b)
		full = map[string]*report{"a": a, "b": b}
	}
	data, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range a.Runs {
		if !r.Correct {
			return fmt.Errorf("%s: %d of %d ops failed; first: %s", r.Workload, r.Failed, r.Attempted, r.FirstError)
		}
	}
	if len(disagreements) > 0 {
		return fmt.Errorf("the two sets of runs disagree on %d metrics: %s", len(disagreements), strings.Join(disagreements, ", "))
	}
	return nil
}

// runSuite runs every (workload, pass) and prints one result line per
// run on stdout; with a single run that line is the last, as the driver
// expects. reversed walks the workloads backwards, so that
// -agree's second set does not meet the machine in the same order.
func runSuite(cfg *config, list []string, passes []bool, reversed bool, stdout, progress io.Writer) (*report, error) {
	rep := newReport(cfg)
	if reversed {
		list = slices.Clone(list)
		slices.Reverse(list)
	}
	for _, name := range list {
		for _, traced := range passes {
			runtime.GC()
			r, err := runWorkload(cfg, name, traced)
			if err != nil {
				return nil, err
			}
			rep.Runs = append(rep.Runs, *r)
			fmt.Fprintf(progress, "== %s traced=%v seed=%d: %d ops in %.1fs, %d failed, digest %s\n",
				name, traced, cfg.seed, r.Samples, r.MeasuredS, r.Failed, r.ResultDigest)
			line, err := json.Marshal(r.result)
			if err != nil {
				return nil, err
			}
			fmt.Fprintln(stdout, string(line))
		}
	}
	return rep, nil
}
