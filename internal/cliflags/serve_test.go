package cliflags

// The serving tests run skipperd and skipperql in-process, over loopback
// sockets on ports the kernel picks: the daemon, its -client and -loadgen
// modes, and the reference evaluation they are diffed against (skipperql
// -engine local: workload.Evaluate, which shares no code with the daemon
// below the planner). Planning, admission, sessions, engines, devices,
// faults and transport may decide when a query answers — never what it
// returns. Each test is one daemon configuration: plain, under a fault
// storm, and on a device fleet that loses a device.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// dataset is every run's generated dataset: small, with prunable dates.
var dataset = []string{"-workload", "tpch", "-sf", "4", "-rows", "4", "-clustered"}

// queries is the statement mix: a join with LIMIT, a filtered scan, a
// join with aggregation and a bare aggregate.
var queries = []string{
	"SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY n_name LIMIT 8",
	"SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 1000.0 ORDER BY o_orderkey",
	"SELECT l_shipmode, COUNT(*) AS n, SUM(l_quantity) AS q FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY l_shipmode ORDER BY l_shipmode",
	"SELECT COUNT(*) AS n, MIN(l_quantity) AS lo, MAX(l_quantity) AS hi FROM lineitem",
}

var mix = strings.Join(queries, "; ")

// tenants run the mix, each through its own session.
var tenants = []int{0, 1, 2}

// syncBuffer is a writer the daemon's goroutines and the test share.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// daemon is a skipperd serving in-process: its query and sidecar
// addresses, as its banner printed them.
type daemon struct {
	addr, sidecar string
	out, errs     syncBuffer
}

var (
	servingLine = regexp.MustCompile(`(?m)^skipperd: serving .* on (\S+)$`)
	sidecarLine = regexp.MustCompile(`(?m)^skipperd: metrics and pprof on http://(\S+) `)
)

// startDaemon boots skipperd over the dataset with flags, on ports the
// kernel picks. When the test ends, cancelling its context must drain it
// cleanly (status 0, "bye"), and the goroutine count must settle back to
// where it was before the boot: the accept loop, the sessions, the
// sidecar and every client connection are gone.
func startDaemon(t *testing.T, flags ...string) *daemon {
	t.Helper()
	baseline := runtime.NumGoroutine()
	d := &daemon{}
	ctx, cancel := context.WithCancel(context.Background())
	args := append(append([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}, dataset...), flags...)
	var code int
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		code = Skipperd(ctx, args, strings.NewReader(""), &d.out, &d.errs)
	}()
	t.Cleanup(func() {
		cancel()
		<-exited
		if code != 0 || !strings.HasSuffix(d.out.String(), "skipperd: draining...\nskipperd: bye\n") {
			t.Errorf("skipperd exited %d\nstdout:\n%s\nstderr:\n%s", code, d.out.String(), d.errs.String())
		}
		requireSettle(t, baseline)
	})
	for deadline := time.Now().Add(10 * time.Second); ; {
		out := d.out.String()
		if s, m := servingLine.FindStringSubmatch(out), sidecarLine.FindStringSubmatch(out); s != nil && m != nil {
			d.addr, d.sidecar = s[1], m[1]
			return d
		}
		select {
		case <-exited:
			t.Fatalf("skipperd exited %d before serving: %s", code, d.errs.String())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("no banner from skipperd:\n%s", out)
		}
	}
}

// requireSettle waits for the goroutine count to return to the baseline
// (small slack for runtime helpers).
func requireSettle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines did not settle: %d > baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// result is what one command run printed and its exit status.
type result struct {
	out, errs string
	code      int
}

// skipperd runs a skipperd that does not serve (-client, -loadgen) to
// its end. It touches no testing.T, so a test may run it on a goroutine.
func skipperd(args ...string) result {
	var out, errs syncBuffer
	code := Skipperd(context.Background(), args, strings.NewReader(""), &out, &errs)
	return result{out.String(), errs.String(), code}
}

// skipperql runs skipperql over the dataset with args.
func skipperql(args ...string) result {
	var out, errs bytes.Buffer
	code := Skipperql(append(slices.Clone(dataset), args...), strings.NewReader(""), &out, &errs)
	return result{out.String(), errs.String(), code}
}

// ok fails the test unless the run exited 0.
func (r result) ok(t *testing.T, what string) string {
	t.Helper()
	if r.code != 0 {
		t.Fatalf("%s exited %d\nstdout:\n%s\nstderr:\n%s", what, r.code, r.out, r.errs)
	}
	return r.out
}

// rows is a transcript without its "-- " lines: the result rows and row
// counts, which nothing but the data may change.
func rows(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.HasPrefix(line, "--") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// oracle is the mix's rows from a skipperql run with flags; with none it
// is the reference evaluation.
func oracle(t *testing.T, flags ...string) string {
	t.Helper()
	if len(flags) == 0 {
		flags = []string{"-engine", "local"}
	}
	return rows(skipperql(append(flags, "-c", mix)...).ok(t, "skipperql oracle"))
}

// requireServed runs the mix through every tenant's session against d and
// requires the rows of each to be want's, and every tenant's statements
// to have completed as that tenant.
func requireServed(t *testing.T, d *daemon, want string) {
	t.Helper()
	for _, tn := range tenants {
		got := rows(skipperd("-client", "-addr", d.addr, "-tenant", fmt.Sprint(tn), "-c", mix).ok(t, "skipperd -client"))
		if got != want {
			t.Errorf("tenant %d: served rows differ from the reference\n--- reference\n%s\n--- served\n%s", tn, want, got)
		}
	}
	body := scrape(t, d, "/metrics")
	for _, tn := range tenants {
		requireMetrics(t, body, fmt.Sprintf(`^skipper_queries_total\{outcome="completed",tenant="%d"\} %d$`, tn, len(queries)))
	}
}

// scrape GETs path from d's sidecar.
func scrape(t *testing.T, d *daemon, path string) string {
	t.Helper()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + d.sidecar + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
	}
	return string(body)
}

// requireMetrics requires every pattern to match a line of the scrape.
func requireMetrics(t *testing.T, body string, patterns ...string) {
	t.Helper()
	for _, p := range patterns {
		if !regexp.MustCompile("(?m)" + p).MatchString(body) {
			t.Errorf("metrics scrape missing %s", p)
		}
	}
}

// requireNoQueryLost: queries completed, and none failed, expired or was
// rejected.
func requireNoQueryLost(t *testing.T, body string) {
	t.Helper()
	requireMetrics(t, body, `^skipper_queries_total\{[^}]*outcome="completed"[^}]*\} [1-9]`)
	if lost := regexp.MustCompile(`(?m)^skipper_queries_total\{[^}]*outcome="(failed|expired|rejected)"[^}]*\} [1-9].*$`).FindString(body); lost != "" {
		t.Errorf("queries were lost: %s", lost)
	}
}

// loadgenLine is loadgen's report line.
var loadgenLine = regexp.MustCompile(`loadgen: \d+ workers, \S+: (\d+) ok, (\d+) rejected, (\d+) failed`)

// TestServeMatchesReference: a multi-tenant session over the wire returns
// the reference's rows, the two shells print the same bytes, closed-loop
// load goes through admission while the sidecar answers (loadgen's last
// line is the server's STATS totals), and the trace directory and TRACE
// report what was served.
func TestServeMatchesReference(t *testing.T) {
	traces := t.TempDir()
	d := startDaemon(t, "-prefetch", "4", "-inflight", "2", "-tenant-slots", "1", "-queue-depth", "16",
		"-trace", "-trace-dir", traces)
	want := oracle(t)

	t.Run("wire rows match the reference", func(t *testing.T) { requireServed(t, d, want) })

	// One statement path, one renderer: for the same statements skipperql
	// (an in-process session) and skipperd -client (a socket) print the
	// same bytes, "-- " lines included, once host time is masked. Tenant
	// 3 has touched nothing yet, as a fresh skipperql session has not.
	t.Run("shells print the same bytes", func(t *testing.T) {
		stmts := mix + "; EXPLAIN " + queries[2]
		hostTime := regexp.MustCompile(`[0-9.]+(ns|µs|ms|s) (queued|wall|busy)`)
		mask := func(s string) string { return hostTime.ReplaceAllString(s, "T $2") }
		wire := mask(skipperd("-client", "-addr", d.addr, "-tenant", "3", "-c", stmts).ok(t, "skipperd -client"))
		direct := mask(skipperql("-prefetch", "4", "-segcache", "8", "-c", stmts).ok(t, "skipperql"))
		if wire != direct {
			t.Errorf("the shells differ\n--- skipperql\n%s\n--- skipperd -client\n%s", direct, wire)
		}
		if !regexp.MustCompile(`(?m)^-- prefetch: [0-9]+ issued`).MatchString(wire) {
			t.Errorf("no prefetch footer under -prefetch 4:\n%s", wire)
		}
	})

	t.Run("shells fail loudly and keep going", func(t *testing.T) {
		stmts := "SELECT nope FROM nowhere; SELECT COUNT(*) AS n FROM region"
		for name, r := range map[string]result{
			"skipperql":        skipperql("-c", stmts),
			"skipperd -client": skipperd("-client", "-addr", d.addr, "-c", stmts),
		} {
			if r.code != 1 {
				t.Errorf("%s: a failed statement exited %d, want 1", name, r.code)
			}
			if !strings.Contains(r.errs, "plan error") || strings.Contains(r.out, "error") || !strings.Contains(r.out, "(1 rows)") {
				t.Errorf("%s: the error is not on stderr alone, or the next statement did not run\nstdout:\n%s\nstderr:\n%s", name, r.out, r.errs)
			}
		}
	})

	// Closed-loop load through admission ends cleanly (overload
	// rejections are not failures), and the observability plane answers
	// while the query plane is busy: the sidecar is scraped mid-load.
	t.Run("loadgen soak with a mid-soak scrape", func(t *testing.T) {
		var soak result
		done := make(chan struct{})
		go func() {
			defer close(done)
			soak = skipperd("-loadgen", "-addr", d.addr, "-workers", "6", "-duration", "1s")
		}()
		// Worker 5 is tenant 5's only client: its completions mean the
		// load is on.
		body := scrape(t, d, "/metrics")
		for loadOn := regexp.MustCompile(`(?m)^skipper_queries_total\{outcome="completed",tenant="5"\} [1-9]`); !loadOn.MatchString(body); {
			select {
			case <-done:
				t.Fatalf("the load ended before tenant 5 completed a query:\n%s\n%s", soak.out, soak.errs)
			case <-time.After(5 * time.Millisecond):
			}
			body = scrape(t, d, "/metrics")
		}
		goroutines := scrape(t, d, "/debug/pprof/goroutine?debug=1")
		select {
		case <-done:
			t.Error("the load ended before the scrape")
		default:
		}
		<-done
		soak.ok(t, "skipperd -loadgen")
		if !strings.Contains(soak.out, "p99.9=") {
			t.Errorf("loadgen output lacks the p99.9 column:\n%s", soak.out)
		}
		if m := loadgenLine.FindStringSubmatch(soak.out); m == nil || m[1] == "0" {
			t.Errorf("loadgen completed nothing:\n%s", soak.out)
		}
		if !regexp.MustCompile(`(?m)^server: .* completed=[1-9]`).MatchString(soak.out) {
			t.Errorf("loadgen printed no server-side STATS totals:\n%s", soak.out)
		}
		if !strings.Contains(goroutines, "goroutine") {
			t.Errorf("pprof goroutine profile looks wrong:\n%.200s", goroutines)
		}
		requireMetrics(t, body,
			`^# TYPE skipper_queries_total counter$`,
			`^skipper_queries_total\{outcome="completed",tenant="0"\} [1-9]`,
			`^# TYPE skipper_query_latency_seconds summary$`,
			`^skipper_query_latency_seconds_count\{tenant="0"\} [1-9]`,
			`^skipper_query_latency_seconds\{tenant="0",quantile="0\.999"\} [0-9]`,
			`^skipper_queue_wait_seconds_total\{tenant="0"\} [0-9]`,
			`^# TYPE skipper_inflight_queries gauge$`,
			`^# TYPE skipper_admission_queued_queries gauge$`,
			`^# TYPE skipper_slow_queries_total counter$`,
			`^# TYPE skipper_traces_retained gauge$`,
			`^skipper_traces_retained [1-9]`,
		)
	})

	// Every query was traced (-trace): the directory holds Chrome trace
	// files, and TRACE serves the newest one's span tree over the wire
	// (the ring evicts old ones under load).
	t.Run("trace dir and the TRACE verb", func(t *testing.T) {
		files, err := filepath.Glob(filepath.Join(traces, "t*-*.json"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no trace files in -trace-dir: %v", err)
		}
		var newest string
		var newestAt time.Time
		for _, f := range files {
			if fi, err := os.Stat(f); err == nil && !fi.ModTime().Before(newestAt) {
				newest, newestAt = f, fi.ModTime()
			}
		}
		id := strings.TrimSuffix(filepath.Base(newest), ".json")
		if out := skipperd("-client", "-addr", d.addr, "-c", "TRACE "+id).ok(t, "TRACE "+id); !strings.Contains(out, "query") {
			t.Errorf("TRACE %s answered no span tree:\n%s", id, out)
		}
	})

	// A worker whose hello is refused fails the run: carrying on would run
	// its queries as tenant 0.
	t.Run("loadgen with an unknown tenant fails", func(t *testing.T) {
		r := skipperd("-loadgen", "-addr", d.addr, "-tenant", "99", "-workers", "2", "-duration", "100ms")
		if r.code != 1 || !strings.Contains(r.errs, "hello") {
			t.Errorf("-tenant 99 exited %d, want 1 with the refused hello on stderr\nstdout:\n%s\nstderr:\n%s", r.code, r.out, r.errs)
		}
		if m := loadgenLine.FindStringSubmatch(r.out); m == nil || m[1] != "0" || m[3] != "2" {
			t.Errorf("want 0 ok and 2 failed workers:\n%s", r.out)
		}
	})

	// Overload rejections are backpressure, not failures: one slot and no
	// queue against four closed-loop workers rejects, and exits 0.
	t.Run("loadgen counts overload as rejected not failed", func(t *testing.T) {
		tight := startDaemon(t, "-inflight", "1", "-queue-depth", "-1")
		r := skipperd("-loadgen", "-addr", tight.addr, "-workers", "4", "-duration", "300ms")
		m := loadgenLine.FindStringSubmatch(r.out)
		if r.code != 0 || m == nil || m[2] == "0" || m[3] != "0" {
			t.Errorf("want rejections, no failures and status 0; exited %d\nstdout:\n%s\nstderr:\n%s", r.code, r.out, r.errs)
		}
	})
}

// TestChaosServeMatchesReference: a daemon whose every query meets a
// seeded fault storm — transient failures, stalls, corrupt payloads and a
// crash/restart window, survived through bounded retries — serves the
// reference's rows, and the fault families show the storm was real.
func TestChaosServeMatchesReference(t *testing.T) {
	d := startDaemon(t, "-prefetch", "4", "-inflight", "2", "-tenant-slots", "1", "-queue-depth", "16",
		"-fault-seed", "42", "-fault-transient", "0.4", "-fault-stall", "0.2", "-fault-corrupt", "0.45",
		"-fault-cap", "3", "-crash-at", "15s", "-crash-downtime", "20s",
		"-retry-attempts", "40", "-retry-backoff", "500ms")
	want := oracle(t) // no faults, no device: chaos against the reference

	t.Run("wire rows match the reference", func(t *testing.T) { requireServed(t, d, want) })

	t.Run("fault families are live and no query is lost", func(t *testing.T) {
		body := scrape(t, d, "/metrics")
		requireMetrics(t, body,
			`^# TYPE skipper_faults_injected counter$`,
			`^skipper_faults_injected\{tenant="0"\} [1-9]`,
			`^# TYPE skipper_retries counter$`,
			`^skipper_retries\{tenant="0"\} [1-9]`,
			`^# TYPE skipper_corrupt_segments counter$`,
			`^skipper_corrupt_segments\{tenant="0"\} [1-9]`,
		)
		requireNoQueryLost(t, body)
	})
}

// TestFleetServeMatchesReference: the rows skipperql prints are its
// engine's, and a daemon on a two-device, fully replicated fleet whose
// device 0 dies 15 s into every query's simulated run, never to restart,
// serves the reference's rows from the replica.
func TestFleetServeMatchesReference(t *testing.T) {
	// Proof by construction that the rows are the cluster run's and not a
	// second, local evaluation no engine or fleet flag could reach: on a
	// join with no ORDER BY the two engines emit the same rows in
	// different orders.
	t.Run("engines print an unordered join in their own orders", func(t *testing.T) {
		unordered := "SELECT l_orderkey, o_orderkey, l_quantity FROM lineitem, orders WHERE l_orderkey = o_orderkey"
		vanilla := rows(skipperql("-engine", "vanilla", "-c", unordered).ok(t, "skipperql -engine vanilla"))
		skipper := rows(skipperql("-engine", "skipper", "-c", unordered).ok(t, "skipperql -engine skipper"))
		if vanilla == skipper {
			t.Error("both engines printed an unordered join in one order: the rows are not the engines'")
		}
		sorted := func(s string) []string { l := strings.Split(s, "\n"); slices.Sort(l); return l }
		if !slices.Equal(sorted(vanilla), sorted(skipper)) {
			t.Errorf("the engines' rows differ beyond their order\n--- vanilla\n%s\n--- skipper\n%s", vanilla, skipper)
		}
	})

	// skipperql on fleets, then skipperd on a fleet whose device 0 dies:
	// the device count, replication and failover change I/O, never rows.
	d := startDaemon(t, "-devices", "2", "-replication", "full", "-crash-at", "15s")
	t.Run("fleet and failover rows match the reference", func(t *testing.T) {
		want := oracle(t)
		for _, fleet := range [][]string{{"-devices", "2", "-replication", "full"}, {"-devices", "4", "-replication", "full"}} {
			if got := oracle(t, fleet...); got != want {
				t.Errorf("skipperql %v: rows differ from the reference\n--- reference\n%s\n--- fleet\n%s", fleet, want, got)
			}
		}
		requireServed(t, d, want)
	})

	t.Run("device families are live and no query is lost", func(t *testing.T) {
		body := scrape(t, d, "/metrics")
		requireMetrics(t, body,
			`^# TYPE skipper_device_gets_total counter$`,
			`^skipper_device_gets_total\{[^}]*device="0"[^}]*\} [1-9]`,
			`^skipper_device_gets_total\{[^}]*device="1"[^}]*\} [1-9]`,
			`^skipper_device_crashes_total\{[^}]*device="0"[^}]*\} [1-9]`,
			`^skipper_failovers\{[^}]*tenant="[0-9]+"[^}]*\} [1-9]`,
		)
		requireNoQueryLost(t, body)
	})
}
