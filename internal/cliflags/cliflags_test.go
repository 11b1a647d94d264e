package cliflags

import (
	"context"
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
// select a default silently ("-engine vanila" served MJoin, "-sf 0" the
// smallest dataset). A range error names its flag.
func TestOutsideInputIsRejected(t *testing.T) {
	for _, tc := range []struct {
		name, line string
		allowLocal bool
		flag       string // the flag the error names, where it is one
	}{
		{"unknown engine", "-engine vanila", false, ""},
		{"unknown engine with local allowed", "-engine vanila", true, ""},
		{"local engine where there is none", "-engine local", false, ""},
		{"unknown replication", "-replication warm", false, ""},
		{"no devices", "-devices 0", false, ""},
		{"negative prefetch budget", "-prefetch -1", false, ""},
		{"negative MJoin cache", "-cache -1", false, ""},
		{"unknown workload", "-workload tpcc", false, ""},
		{"rate out of range", "-fault-transient 1.5", false, ""},
		{"stall rate without a duration", "-fault-stall 0.5 -fault-stall-dur 0s", false, ""},
		{"zero scale", "-sf 0", false, "-sf"},
		{"negative scale", "-sf -5", false, "-sf"},
		{"no rows per object", "-rows 0", false, "-rows"},
		{"negative segment cache", "-segcache -1", false, "-segcache"},
		{"negative retry attempts", "-retry-attempts -1", false, "-retry-attempts"},
		{"negative retry backoff", "-retry-backoff -1s", false, "-retry-backoff"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := resolve(t, tc.allowLocal, small+tc.line)
			if err == nil {
				t.Fatalf("%q accepted: %+v", tc.line, r)
			}
			if !strings.Contains(err.Error(), tc.flag) {
				t.Fatalf("%q refused with %q, which does not name %s", tc.line, err, tc.flag)
			}
		})
	}
	if r, err := resolve(t, true, small+"-engine local"); err != nil || !r.Local {
		t.Fatalf("-engine local refused where allowed: %+v, %v", r, err)
	}
}

// TestServeFlagsOutOfRangeAreUsageErrors: skipperd's serving flags used
// to read an out-of-range value as a default ("-inflight 0" ran 4 slots,
// "-tenants -2" printed [0,-2) and accepted [0,8)). Each now exits 2
// naming the flag, before a dataset is built; the documented negative
// values of -queue-depth and -fault-cap still serve.
func TestServeFlagsOutOfRangeAreUsageErrors(t *testing.T) {
	serve := func(args ...string) result {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // a daemon that starts at all drains and exits 0 at once
		var out, errs syncBuffer
		code := Skipperd(ctx, append([]string{"-addr", "127.0.0.1:0", "-sf", "1", "-rows", "2"}, args...), strings.NewReader(""), &out, &errs)
		return result{out.String(), errs.String(), code}
	}
	for _, tc := range []struct{ flag, value string }{
		{"inflight", "0"},
		{"inflight", "-3"},
		{"tenant-slots", "-1"},
		{"tenants", "-2"},
		{"tenants", "0"},
		{"max-line", "-1"},
		{"max-line", "0"},
	} {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			r := serve("-"+tc.flag, tc.value)
			if r.code != 2 || !strings.Contains(r.errs, "-"+tc.flag) {
				t.Fatalf("-%s %s exited %d, want 2 naming the flag\nstdout:\n%s\nstderr:\n%s", tc.flag, tc.value, r.code, r.out, r.errs)
			}
			if r.out != "" {
				t.Fatalf("-%s %s served before it was refused:\n%s", tc.flag, tc.value, r.out)
			}
		})
	}
	r := serve("-queue-depth", "-1", "-fault-cap", "-1")
	r.ok(t, "-queue-depth -1 -fault-cap -1")
	if !strings.Contains(r.out, "queue depth 0") {
		t.Fatalf("-queue-depth -1 did not serve without a queue:\n%s", r.out)
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
