package cliflags

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/layout"
	"repro/internal/skipper"
)

// resolve parses one flag line on a fresh set and resolves it.
func resolve(t *testing.T, allowLocal bool, line string) (*Run, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Bind(fs, 0)
	f.AllowLocal = allowLocal
	if err := fs.Parse(strings.Fields(line)); err != nil {
		t.Fatalf("parse %q: %v", line, err)
	}
	return f.Resolve()
}

// small keeps the generated dataset tiny; every case appends its own flags.
const small = "-sf 1 -rows 2 "

// TestFullFlagLine: one line setting every group resolves to exactly the
// values the library takes.
func TestFullFlagLine(t *testing.T) {
	r, err := resolve(t, false, small+"-workload tpch -clustered "+
		"-engine vanilla -cache 7 -segcache 5 -prune=false -prefetch 3 "+
		"-devices 2 -replication full "+
		"-fault-transient 0.4 -fault-corrupt 0.25 -fault-stall 0.2 -fault-stall-dur 5s -fault-cap 2 -fault-seed 42 "+
		"-crash-at 15s -crash-downtime 20s -retry-attempts 40 -retry-backoff 500ms")
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != "tpch" || r.Engine != "vanilla" || r.Dataset == nil {
		t.Errorf("dataset group: %q %q %v", r.Workload, r.Engine, r.Dataset)
	}
	if r.Mode != skipper.ModeVanilla || r.Local || r.CacheObjects != 7 || r.SegCache != 5 || !r.NoStatsPruning {
		t.Errorf("execution group: %+v", r)
	}
	if r.PrefetchBytes != 3e9 {
		t.Errorf("prefetch budget %d, want 3e9", r.PrefetchBytes)
	}
	wantFleet := skipper.FleetSpec{
		N:           2,
		Replication: layout.ReplicateFull,
		Faults: &faults.Plan{
			Seed: 42, TransientRate: 0.4, StallRate: 0.2, Stall: 5 * time.Second, CorruptRate: 0.25,
			MaxFaultsPerObject: 2, CrashAt: 15 * time.Second, CrashDowntime: 20 * time.Second,
		},
	}
	if !reflect.DeepEqual(r.Fleet, wantFleet) {
		t.Errorf("fleet %+v (plan %+v), want %+v (plan %+v)", r.Fleet, r.Fleet.Faults, wantFleet, wantFleet.Faults)
	}
	wantRetry := skipper.DefaultRetryPolicy()
	wantRetry.MaxAttempts, wantRetry.BaseBackoff = 40, 500*time.Millisecond
	if !reflect.DeepEqual(r.Retry, wantRetry) {
		t.Errorf("retry %+v, want %+v", r.Retry, wantRetry)
	}
	// Both front ends serve from this one mapping.
	cfg := r.ServerConfig()
	if cfg.Dataset != r.Dataset || cfg.Mode != r.Mode || cfg.CacheObjects != 7 || cfg.SegCacheObjects != 5 || !cfg.NoStatsPruning ||
		cfg.PrefetchBytes != 3e9 || !reflect.DeepEqual(cfg.Fleet, r.Fleet) || cfg.Retry != r.Retry {
		t.Errorf("server config %+v does not carry the run %+v", cfg, r)
	}
}

// TestDefaultsResolveToTheZeroFleet: no flags means today's plain run —
// skipper engine, pruning on, no prefetch, and the fleet every library caller gets
// by saying nothing (one device, clean), with library-default retries.
func TestDefaultsResolveToTheZeroFleet(t *testing.T) {
	r, err := resolve(t, false, small)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != skipper.ModeSkipper || r.NoStatsPruning || r.CacheObjects != 10 {
		t.Errorf("defaults: %+v", r)
	}
	if r.PrefetchBytes != 0 || r.Retry != nil || !reflect.DeepEqual(r.Fleet, skipper.FleetSpec{N: 1}) {
		t.Errorf("defaults: prefetch %d retry %v fleet %+v", r.PrefetchBytes, r.Retry, r.Fleet)
	}
}

// TestOutsideInputIsRejected: names and ranges nobody checked used to
// select a default silently ("-engine vanila" served MJoin).
func TestOutsideInputIsRejected(t *testing.T) {
	for _, tc := range []struct {
		name, line string
		allowLocal bool
	}{
		{"unknown engine", "-engine vanila", false},
		{"unknown engine with local allowed", "-engine vanila", true},
		{"local engine where there is none", "-engine local", false},
		{"unknown replication", "-replication warm", false},
		{"no devices", "-devices 0", false},
		{"negative prefetch budget", "-prefetch -1", false},
		{"negative MJoin cache", "-cache -1", false},
		{"unknown workload", "-workload tpcc", false},
		{"rate out of range", "-fault-transient 1.5", false},
		{"stall rate without a duration", "-fault-stall 0.5 -fault-stall-dur 0s", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if r, err := resolve(t, tc.allowLocal, small+tc.line); err == nil {
				t.Fatalf("%q accepted: %+v", tc.line, r)
			}
		})
	}
	if r, err := resolve(t, true, small+"-engine local"); err != nil || !r.Local {
		t.Fatalf("-engine local refused where allowed: %+v, %v", r, err)
	}
}

// TestHotReplicationIsAUsageError: `hot` replication, bare or with a
// count, was deleted (it placed exactly as `full` does); both front ends
// refuse it with exit status 2 and name the policies that remain.
func TestHotReplicationIsAUsageError(t *testing.T) {
	for _, policy := range []string{"hot", "hot" + ":4"} {
		for name, run := range map[string]func(...string) result{"skipperd": skipperd, "skipperql": skipperql} {
			t.Run(name+"/"+policy, func(t *testing.T) {
				r := run("-devices", "2", "-replication", policy)
				if r.code != 2 || !strings.Contains(r.errs, "want none or full") {
					t.Fatalf("-replication %s exited %d, want 2 naming none and full\nstderr:\n%s", policy, r.code, r.errs)
				}
			})
		}
	}
}

// TestFormatFlagIsAUsageError: there is no -format flag (every dataset is
// served as v2 objects); both front ends refuse it, whatever its value,
// with exit status 2 and name the flag.
func TestFormatFlagIsAUsageError(t *testing.T) {
	for _, format := range []string{"v2", "mem"} {
		for name, run := range map[string]func(...string) result{"skipperd": skipperd, "skipperql": skipperql} {
			t.Run(name+"/"+format, func(t *testing.T) {
				r := run("-format", format)
				if r.code != 2 || !strings.Contains(r.errs, "-format") {
					t.Fatalf("-format %s exited %d, want 2 naming the flag\nstderr:\n%s", format, r.code, r.errs)
				}
			})
		}
	}
}

// TestSharedDefaultsDifferOnlyInSegcache: skipperd (8) and skipperql (0)
// bind the same flags with the same defaults, except -segcache — kept
// apart on purpose, see Bind.
func TestSharedDefaultsDifferOnlyInSegcache(t *testing.T) {
	defaults := func(segCache int) map[string]string {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		Bind(fs, segCache)
		out := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { out[f.Name] = f.DefValue })
		return out
	}
	d, ql := defaults(8), defaults(0)
	if len(d) != 21 || len(ql) != len(d) {
		t.Fatalf("bound %d and %d flags, want 21 each", len(d), len(ql))
	}
	for gone, why := range map[string]string{
		"pipeline":       "-prefetch N is the one prefetch setting",
		"decode-workers": "-prefetch N is the one prefetch setting",
		"format":         "every dataset is served as v2 objects",
	} {
		if _, ok := d[gone]; ok {
			t.Errorf("-%s is still a flag; %s", gone, why)
		}
	}
	for name, def := range d {
		if name == "segcache" {
			if def != "8" || ql[name] != "0" {
				t.Errorf("-segcache defaults %s / %s, want 8 / 0", def, ql[name])
			}
			continue
		}
		if ql[name] != def {
			t.Errorf("-%s: skipperd defaults to %q, skipperql to %q", name, def, ql[name])
		}
	}
}
