// Package cliflags is the one binding from command-line flags to a run:
// the dataset, execution and fleet/fault/retry flag groups skipperd and
// skipperql share, registered once and resolved once into the values the
// library takes — a dataset, a skipper.FleetSpec, a prefetch budget, a
// retry policy, an engine mode — and from there into the server.Config
// both front ends serve from. Unknown names and out-of-range values are
// errors here, so a typo never silently selects a default.
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

// Flags holds the registered flag values until Resolve.
type Flags struct {
	// AllowLocal admits "-engine local": evaluate without a simulated
	// device. Only skipperql has such an engine.
	AllowLocal bool

	workload      *string
	sf, rows      *int
	clustered     *bool
	format        *string
	engine        *string
	cache         *int
	segCache      *int
	prune         *bool
	prefetchGB    *int
	devices       *int
	replication   *string
	transient     *float64
	corrupt       *float64
	stall         *float64
	stallDur      *time.Duration
	faultCap      *int
	faultSeed     *int64
	crashAt       *time.Duration
	crashDowntime *time.Duration
	retryAttempts *int
	retryBackoff  *time.Duration
}

// Bind registers the shared flags on fs. segCache is the default of
// -segcache, the one default the CLIs do not share, on purpose: a daemon's
// tenants reconnect and re-hit what their last session pulled (skipperd:
// 8), while a one-shot shell statement has nothing to re-hit unless asked
// (skipperql: 0).
func Bind(fs *flag.FlagSet, segCache int) *Flags {
	return &Flags{
		// Dataset.
		workload:  fs.String("workload", "tpch", "dataset: tpch, ssb, mrbench, nref"),
		sf:        fs.Int("sf", 10, "scale factor / footprint in GB"),
		rows:      fs.Int("rows", 20, "tuples per 1 GB object"),
		clustered: fs.Bool("clustered", false, "sort the TPC-H date columns before segmenting (makes date predicates prunable)"),
		format:    fs.String("format", "v2", "segment wire format the store serves: mem or v2"),
		// Execution.
		engine:     fs.String("engine", "skipper", "execution engine: skipper or vanilla"),
		cache:      fs.Int("cache", 10, "MJoin cache size in objects (skipper engine)"),
		segCache:   fs.Int("segcache", segCache, "segment cache budget in objects (0 = off); persists across a tenant's connections / a session's statements"),
		prune:      fs.Bool("prune", true, "enable zone-map/Bloom data skipping of segment requests"),
		prefetchGB: fs.Int("prefetch", 0, "scheduler-aware prefetch budget in 1 GB objects ahead of demand (0 = off)"),
		// Fleet, faults, retry: a deterministic chaos schedule applied
		// afresh to every query's device run. Rates of zero (the defaults)
		// disable injection entirely.
		devices:       fs.Int("devices", 1, "CSD fleet size every query runs against: disk groups spread across this many devices"),
		replication:   fs.String("replication", "none", "object replication across the fleet: none, full, hot or hot:N (with -devices > 1)"),
		transient:     fs.Float64("fault-transient", 0, "probability a device transfer fails transiently and is retried, in [0,1]"),
		corrupt:       fs.Float64("fault-corrupt", 0, "probability a transfer delivers a corrupt payload — caught by checksum, quarantined and re-requested — in [0,1]"),
		stall:         fs.Float64("fault-stall", 0, "probability a transfer stalls for -fault-stall-dur extra simulated time, in [0,1]"),
		stallDur:      fs.Duration("fault-stall-dur", 3*time.Second, "extra simulated latency of a stalled transfer"),
		faultCap:      fs.Int("fault-cap", 3, "max transient+corrupt faults charged per object (negative = unlimited; retries may exhaust)"),
		faultSeed:     fs.Int64("fault-seed", 1, "seed of the deterministic fault schedule"),
		crashAt:       fs.Duration("crash-at", 0, "crash device 0 this far into each query's simulated run (0 = never)"),
		crashDowntime: fs.Duration("crash-downtime", 0, "restart the device this long after -crash-at (0 with -crash-at set = permanent crash)"),
		retryAttempts: fs.Int("retry-attempts", 0, "max transfer attempts per object before the query fails (0 = default 12)"),
		retryBackoff:  fs.Duration("retry-backoff", 0, "base retry backoff, doubling per attempt up to 8s with deterministic jitter (0 = default 250ms)"),
	}
}

// Run is what the flags resolve to.
type Run struct {
	// Workload, Engine and Format echo the flags; Dataset is the generated
	// dataset re-encoded in Format.
	Workload, Engine string
	Format           segment.Format
	Dataset          *workload.Dataset
	// Mode is the engine; Local is set instead for "-engine local".
	Mode  skipper.Mode
	Local bool
	// MJoinCache and SegCache are the -cache and -segcache budgets in
	// objects; Prune is the data-skipping toggle.
	MJoinCache, SegCache int
	Prune                bool
	// PrefetchBytes is the -prefetch budget in bytes (0 = off).
	PrefetchBytes int64
	// Fleet carries -devices, -replication and the fault plan (nil when
	// no fault flag enables anything).
	Fleet skipper.FleetSpec
	// Retry is nil (library default) unless a -retry-* flag is set.
	Retry *skipper.RetryPolicy
}

// ServerConfig is the run as a server configuration: what skipperd serves
// over its socket and skipperql through an in-process session. The
// serving-only settings (admission, deadlines, tracing) are left at their
// defaults for the caller to set.
func (r *Run) ServerConfig() server.Config {
	cfg := server.NewConfig(r.Dataset)
	cfg.Mode = r.Mode
	cfg.CacheObjects = r.MJoinCache
	cfg.SegCacheObjects = r.SegCache
	cfg.Prune = r.Prune
	cfg.PrefetchBytes = r.PrefetchBytes
	cfg.Fleet = r.Fleet
	cfg.Retry = r.Retry
	return cfg
}

// Resolve validates the parsed flags and builds the run. Every error is a
// usage error: an unknown workload, format, engine or replication policy,
// a negative prefetch budget, a fleet of fewer than one device, a rate
// outside [0,1].
func (f *Flags) Resolve() (*Run, error) {
	r := &Run{
		Workload:   *f.workload,
		Engine:     *f.engine,
		MJoinCache: *f.cache,
		SegCache:   *f.segCache,
		Prune:      *f.prune,
	}
	var err error
	if r.Format, err = segment.ParseFormat(*f.format); err != nil {
		return nil, err
	}
	if *f.engine == "local" && f.AllowLocal {
		r.Local = true
	} else if r.Mode, err = skipper.ParseMode(*f.engine); err != nil {
		return nil, err
	}
	if *f.prefetchGB < 0 {
		return nil, fmt.Errorf("-prefetch %d < 0", *f.prefetchGB)
	}
	r.PrefetchBytes = int64(*f.prefetchGB) * 1e9
	if *f.devices < 1 {
		return nil, fmt.Errorf("-devices %d < 1", *f.devices)
	}
	r.Fleet.N = *f.devices
	if r.Fleet.Replication, err = layout.ParseReplication(*f.replication); err != nil {
		return nil, err
	}
	plan := faults.Plan{
		Seed:               *f.faultSeed,
		TransientRate:      *f.transient,
		StallRate:          *f.stall,
		Stall:              *f.stallDur,
		CorruptRate:        *f.corrupt,
		MaxFaultsPerObject: *f.faultCap,
		CrashAt:            *f.crashAt,
		CrashDowntime:      *f.crashDowntime,
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if plan.Enabled() {
		r.Fleet.Faults = &plan
	}
	if *f.retryAttempts > 0 || *f.retryBackoff > 0 {
		r.Retry = skipper.DefaultRetryPolicy()
		if *f.retryAttempts > 0 {
			r.Retry.MaxAttempts = *f.retryAttempts
		}
		if *f.retryBackoff > 0 {
			r.Retry.BaseBackoff = *f.retryBackoff
		}
	}
	// The dataset last: everything above is cheap to reject.
	var ds *workload.Dataset
	switch *f.workload {
	case "tpch":
		ds = workload.TPCH(0, workload.TPCHConfig{SF: *f.sf, RowsPerObject: *f.rows, Seed: 1, ClusteredDates: *f.clustered})
	case "ssb":
		ds = workload.SSB(0, workload.SSBConfig{SF: *f.sf, RowsPerObject: *f.rows, Seed: 1})
	case "mrbench":
		ds = workload.MRBench(0, workload.MRBenchConfig{TotalGB: *f.sf, RowsPerObject: *f.rows, Seed: 1})
	case "nref":
		ds = workload.NREF(0, workload.NREFConfig{TotalGB: *f.sf, RowsPerObject: *f.rows, Seed: 1})
	default:
		return nil, fmt.Errorf("unknown workload %q", *f.workload)
	}
	// Re-encode the dataset in the chosen wire format: the store then
	// serves lazily decoded segments, scans pay (and report) real decode
	// work, and the catalog statistics come from the v2 column
	// directories. FormatMem keeps the generator's in-memory segments.
	if r.Dataset, err = objstore.ReencodeDataset(ds, r.Format); err != nil {
		return nil, fmt.Errorf("encode dataset: %w", err)
	}
	return r, nil
}
