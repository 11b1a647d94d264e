// Package cliflags is the command line: Skipperd and Skipperql are the
// two commands, which cmd/ only hands their arguments and streams, and
// Bind and Resolve are the one binding from the flag groups both share
// to a run — the dataset, skipper.Options and skipper.FleetSpec the
// library takes, and from there the server.Config both serve from.
// Unknown names and out-of-range values are errors here, so a typo never
// silently selects a default.
package cliflags

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/objstore"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/skipper"
	"repro/internal/workload"
)

// Flags holds the registered flag values until Resolve. A flag that is
// a Run or faults.Plan field as given is bound to it directly.
type Flags struct {
	// AllowLocal admits "-engine local": evaluate without a simulated
	// device. Only skipperql has such an engine.
	AllowLocal bool

	run                                 Run
	plan                                faults.Plan
	replication                         string
	sf, rows, prefetchGB, retryAttempts int
	clustered, prune                    bool
	retryBackoff                        time.Duration
}

// Bind registers the shared flags on fs. segCache is the default of
// -segcache, the one default the CLIs do not share, on purpose: a daemon's
// tenants reconnect and re-hit what their last session pulled (skipperd:
// 8), while a one-shot shell statement has nothing to re-hit unless asked
// (skipperql: 0).
func Bind(fs *flag.FlagSet, segCache int) *Flags {
	f, serving := &Flags{}, server.NewConfig(nil)
	// Dataset.
	fs.StringVar(&f.run.Workload, "workload", "tpch", "dataset: tpch, ssb, mrbench, nref")
	fs.IntVar(&f.sf, "sf", 10, "scale factor / footprint in GB")
	fs.IntVar(&f.rows, "rows", 20, "tuples per 1 GB object")
	fs.BoolVar(&f.clustered, "clustered", false, "sort the TPC-H date columns before segmenting (makes date predicates prunable)")
	// Execution.
	fs.StringVar(&f.run.Engine, "engine", serving.Mode.String(), "execution engine: skipper or vanilla")
	fs.IntVar(&f.run.CacheObjects, "cache", serving.CacheObjects, "MJoin cache size in objects (skipper engine)")
	fs.IntVar(&f.run.SegCache, "segcache", segCache, "segment cache budget in objects (0 = off); persists across a tenant's connections / a session's statements")
	fs.BoolVar(&f.prune, "prune", true, "enable zone-map/Bloom data skipping of segment requests")
	fs.IntVar(&f.prefetchGB, "prefetch", 0, "scheduler-aware prefetch budget in 1 GB objects ahead of demand (0 = off)")
	// Fleet, faults, retry: a deterministic chaos schedule applied
	// afresh to every query's device run. Rates of zero (the defaults)
	// disable injection entirely.
	fs.IntVar(&f.run.Fleet.N, "devices", 1, "CSD fleet size every query runs against: disk groups spread across this many devices")
	fs.StringVar(&f.replication, "replication", "none", "object replication across the fleet: none or full (with -devices > 1)")
	fs.Float64Var(&f.plan.TransientRate, "fault-transient", 0, "probability a device transfer fails transiently and is retried, in [0,1]")
	fs.Float64Var(&f.plan.CorruptRate, "fault-corrupt", 0, "probability a transfer delivers a corrupt payload — caught by checksum, quarantined and re-requested — in [0,1]")
	fs.Float64Var(&f.plan.StallRate, "fault-stall", 0, "probability a transfer stalls for -fault-stall-dur extra simulated time, in [0,1]")
	fs.DurationVar(&f.plan.Stall, "fault-stall-dur", 3*time.Second, "extra simulated latency of a stalled transfer")
	fs.IntVar(&f.plan.MaxFaultsPerObject, "fault-cap", 3, "max transient+corrupt faults charged per object (negative = unlimited; retries may exhaust)")
	fs.Int64Var(&f.plan.Seed, "fault-seed", 1, "seed of the deterministic fault schedule")
	fs.DurationVar(&f.plan.CrashAt, "crash-at", 0, "crash device 0 this far into each query's simulated run (0 = never)")
	fs.DurationVar(&f.plan.CrashDowntime, "crash-downtime", 0, "restart the device this long after -crash-at (0 with -crash-at set = permanent crash)")
	fs.IntVar(&f.retryAttempts, "retry-attempts", 0, "max transfer attempts per object before the query fails (0 = default 12)")
	fs.DurationVar(&f.retryBackoff, "retry-backoff", 0, "base retry backoff, doubling per attempt up to 8s with deterministic jitter (0 = default 250ms)")
	return f
}

// Run is what the flags resolve to.
type Run struct {
	// Workload and Engine echo the flags; Dataset is the generated
	// dataset encoded as v2 objects.
	Workload, Engine string
	Dataset          *workload.Dataset
	// Local is set for "-engine local", where Mode stays unset.
	Local bool
	// Options are the execution flags: -engine, -cache, -prune, -prefetch
	// (in bytes) and the -retry-* policy (nil unless one is set).
	skipper.Options
	// SegCache is the -segcache budget in objects.
	SegCache int
	// Fleet carries -devices, -replication and the fault plan (nil when
	// no fault flag enables anything).
	Fleet skipper.FleetSpec
}

// ServerConfig is the run as a server configuration: what skipperd serves
// over its socket and skipperql through an in-process session. The
// serving-only settings (admission, deadlines, tracing) are left at their
// defaults for the caller to set.
func (r *Run) ServerConfig() server.Config {
	cfg := server.NewConfig(r.Dataset)
	cfg.Options, cfg.SegCacheObjects, cfg.Fleet = r.Options, r.SegCache, r.Fleet
	return cfg
}

// Resolve validates the parsed flags and builds the run. Every error is a
// usage error: an unknown workload, engine or replication policy, a scale
// or object size below 1, a negative segment cache, prefetch budget, MJoin
// cache or retry setting, a fleet of fewer than one device, a rate outside
// [0,1].
func (f *Flags) Resolve() (*Run, error) {
	r := f.run
	switch {
	case f.sf < 1:
		return nil, fmt.Errorf("-sf %d < 1", f.sf)
	case f.rows < 1:
		return nil, fmt.Errorf("-rows %d < 1", f.rows)
	case r.SegCache < 0:
		return nil, fmt.Errorf("-segcache %d < 0", r.SegCache)
	case f.retryAttempts < 0:
		return nil, fmt.Errorf("-retry-attempts %d < 0", f.retryAttempts)
	case f.retryBackoff < 0:
		return nil, fmt.Errorf("-retry-backoff %v < 0", f.retryBackoff)
	}
	var err error
	if r.Engine == "local" && f.AllowLocal {
		r.Local = true
	} else if r.Mode, err = skipper.ParseMode(r.Engine); err != nil {
		return nil, err
	}
	r.NoStatsPruning = !f.prune
	r.PrefetchBytes = int64(f.prefetchGB) * 1e9
	if r.Fleet.N < 1 {
		return nil, fmt.Errorf("-devices %d < 1", r.Fleet.N)
	}
	if r.Fleet.Replication, err = layout.ParseReplication(f.replication); err != nil {
		return nil, err
	}
	plan := f.plan
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if plan.Enabled() {
		r.Fleet.Faults = &plan
	}
	if f.retryAttempts > 0 || f.retryBackoff > 0 {
		r.Retry = skipper.DefaultRetryPolicy()
		if f.retryAttempts > 0 {
			r.Retry.MaxAttempts = f.retryAttempts
		}
		if f.retryBackoff > 0 {
			r.Retry.BaseBackoff = f.retryBackoff
		}
	}
	if err := r.Options.Validate(); err != nil {
		return nil, err
	}
	// The dataset last: everything above is cheap to reject.
	var ds *workload.Dataset
	switch r.Workload {
	case "tpch":
		ds = workload.TPCH(0, workload.TPCHConfig{SF: f.sf, RowsPerObject: f.rows, Seed: 1, ClusteredDates: f.clustered})
	case "ssb":
		ds = workload.SSB(0, workload.SSBConfig{SF: f.sf, RowsPerObject: f.rows, Seed: 1})
	case "mrbench":
		ds = workload.MRBench(0, workload.MRBenchConfig{TotalGB: f.sf, RowsPerObject: f.rows, Seed: 1})
	case "nref":
		ds = workload.NREF(0, workload.NREFConfig{TotalGB: f.sf, RowsPerObject: f.rows, Seed: 1})
	default:
		return nil, fmt.Errorf("unknown workload %q", r.Workload)
	}
	// Encode the dataset as v2 objects: the store then serves lazily
	// decoded segments, scans pay (and report) real decode work, and the
	// catalog statistics come from the v2 column directories.
	if r.Dataset, err = objstore.ReencodeDataset(ds, segment.FormatV2); err != nil {
		return nil, fmt.Errorf("encode dataset: %w", err)
	}
	return &r, nil
}
