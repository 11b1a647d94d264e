package cliflags

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/sql"
)

// Skipperd is the skipperd command (cmd/skipperd documents it): it serves
// until ctx ends, or runs -client or -loadgen until done or ctx ends. It
// returns the exit status: 2 for a usage error; 1 for a failed statement,
// a loadgen failure or a forced shutdown; 0 otherwise.
func Skipperd(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("skipperd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// Mode selection.
	clientMode := fs.Bool("client", false, "connect to a daemon and run statements instead of serving")
	loadgen := fs.Bool("loadgen", false, "drive closed-loop load against a daemon and report latency percentiles")
	addr := fs.String("addr", "127.0.0.1:7878", "listen (serve) or connect (client/loadgen) address")
	// Dataset, engine, fleet, fault and retry flags: skipperql's too.
	shared := Bind(fs, 8)
	// Serving flags.
	inflight := fs.Int("inflight", 4, "queries executing concurrently, across all tenants")
	tenantSlots := fs.Int("tenant-slots", 0, "one tenant's maximum share of -inflight (0 = no per-tenant cap)")
	queueDepth := fs.Int("queue-depth", 0, "queries waiting for a slot before rejection (0 = 4x inflight, negative = no queueing)")
	maxTenants := fs.Int("tenants", 8, "acceptable tenant ids: [0, N)")
	deadline := fs.Duration("deadline", 0, "default per-query deadline (0 = unbounded); queries may override with deadline_ms")
	maxLine := fs.Int("max-line", server.DefaultMaxLineBytes, "request frame size limit in bytes")
	// Observability flags (serve mode).
	metricsAddr := fs.String("metrics-addr", "", "HTTP sidecar address serving /metrics (Prometheus) and /debug/pprof (empty = off)")
	traceAll := fs.Bool("trace", false, "capture a span tree for every query (clients can also opt in per request)")
	traceDir := fs.String("trace-dir", "", "write every completed query trace as a Chrome trace-event JSON file into this directory")
	slowQuery := fs.Duration("slow-query", 0, "log queries whose wall time (queue wait included) meets this threshold (0 = off)")
	// Client / loadgen flags.
	tenant := fs.Int("tenant", -1, "tenant to bind the session to (client/loadgen; -1 = server default)")
	command := fs.String("c", "", "';'-separated statements to run (client/loadgen); client mode reads them from stdin when empty")
	workers := fs.Int("workers", 4, "concurrent loadgen clients")
	duration := fs.Duration("duration", 5*time.Second, "loadgen run length")

	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2 // the flag package has printed why
	}
	r := remote{addr: *addr, command: *command, tenant: *tenant, stdout: stdout, stderr: stderr}
	switch {
	case *clientMode && *loadgen:
		return usageError(stderr, "skipperd", fmt.Errorf("pick one of -client and -loadgen"))
	case *clientMode:
		return r.client(ctx, stdin)
	case *loadgen:
		return r.loadgen(ctx, *workers, *maxTenants, *duration)
	}

	// Serve mode: its own flags are checked before Resolve builds the
	// dataset.
	for _, c := range []struct {
		flag     string
		val, min int
	}{{"inflight", *inflight, 1}, {"tenant-slots", *tenantSlots, 0}, {"tenants", *maxTenants, 1}, {"max-line", *maxLine, 1}} {
		if c.val < c.min {
			return usageError(stderr, "skipperd", fmt.Errorf("-%s %d < %d", c.flag, c.val, c.min))
		}
	}
	run, err := shared.Resolve()
	if err != nil {
		return usageError(stderr, "skipperd", err)
	}
	cfg := run.ServerConfig()
	cfg.Admission = server.AdmissionConfig{Slots: *inflight, TenantSlots: *tenantSlots, QueueDepth: *queueDepth}
	cfg.MaxTenants, cfg.DefaultDeadline, cfg.MaxLineBytes = *maxTenants, *deadline, *maxLine
	cfg.Tracing, cfg.SlowQuery = *traceAll, *slowQuery
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return usageError(stderr, "skipperd", fmt.Errorf("trace-dir: %w", err))
		}
		cfg.TraceSink = server.ChromeTraceDir(*traceDir)
	}
	s, err := server.New(cfg)
	if err != nil {
		return usageError(stderr, "skipperd", err)
	}
	bound, err := s.Start(*addr)
	var dbg net.Addr
	if err == nil && *metricsAddr != "" {
		if dbg, err = s.ServeDebug(*metricsAddr); err != nil {
			err = fmt.Errorf("metrics-addr: %w", err)
		}
	}
	if err != nil {
		s.Shutdown(context.Background())
		return usageError(stderr, "skipperd", err)
	}
	adm := s.Admission().Config()
	fmt.Fprintf(stdout, "skipperd: serving %s dataset (%d objects, format=v2, engine=%s) on %s\n", run.Workload, len(run.Dataset.Catalog.AllObjects()), run.Mode, bound)
	fmt.Fprintf(stdout, "skipperd: admission %d in flight (%d per tenant), queue depth %d, tenants [0,%d)\n", adm.Slots, adm.TenantSlots, adm.QueueDepth, *maxTenants)
	if run.Fleet.N > 1 {
		fmt.Fprintf(stdout, "skipperd: device fleet of %d, replication %s\n", run.Fleet.N, run.Fleet.Replication)
	}
	if plan := run.Fleet.Faults; plan != nil {
		fmt.Fprintf(stdout, "skipperd: fault injection on (seed %d): transient %.2f, stall %.2f×%s, corrupt %.2f, cap %d, crash %s+%s\n",
			plan.Seed, plan.TransientRate, plan.StallRate, plan.Stall, plan.CorruptRate, plan.MaxFaultsPerObject, plan.CrashAt, plan.CrashDowntime)
	}
	if dbg != nil {
		fmt.Fprintf(stdout, "skipperd: metrics and pprof on http://%s (/metrics, /debug/pprof)\n", dbg)
	}
	if *slowQuery > 0 {
		fmt.Fprintf(stdout, "skipperd: logging queries slower than %s to stderr\n", *slowQuery)
	}
	if *traceDir != "" {
		fmt.Fprintf(stdout, "skipperd: writing query traces to %s\n", *traceDir)
	}

	<-ctx.Done()
	fmt.Fprintln(stdout, "skipperd: draining...")
	drain, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(drain); err != nil {
		fmt.Fprintf(stderr, "skipperd: forced shutdown: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "skipperd: bye")
	return 0
}

// usageError prints err as name's and returns the usage-error status.
func usageError(stderr io.Writer, name string, err error) int {
	fmt.Fprintf(stderr, "%s: %v\n", name, err)
	return 2
}

// remote is what -client and -loadgen share: the daemon's address, the
// session's tenant and statements, and where to write.
type remote struct {
	addr, command  string
	tenant         int
	stdout, stderr io.Writer
}

// wire is one client session over the daemon's protocol.
type wire struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
}

// dialWire connects with retries so scripts can start the daemon and the
// client back to back without sleeping.
func dialWire(addr string) (*wire, error) {
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return &wire{conn: conn, enc: json.NewEncoder(conn), dec: json.NewDecoder(bufio.NewReader(conn))}, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("connect %s: %w", addr, err)
		}
	}
}

func (w *wire) roundTrip(req *server.Request) (*server.Response, error) {
	if err := w.enc.Encode(req); err != nil {
		return nil, fmt.Errorf("send: %w", err)
	}
	var resp server.Response
	if err := w.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("recv: %w", err)
	}
	return &resp, nil
}

// client runs the statements of -c, or of stdin, through the shared
// statement loop, every request naming the session's tenant: status 0
// only if every one succeeded. Cancelling ctx ends the session at once.
func (r remote) client(ctx context.Context, stdin io.Reader) int {
	w, err := dialWire(r.addr)
	if err != nil {
		fmt.Fprintf(r.stderr, "skipperd: %v\n", err)
		return 1
	}
	defer w.conn.Close()
	defer context.AfterFunc(ctx, func() { w.conn.Close() })()
	sh := &server.Shell{RoundTrip: w.roundTrip, Out: r.stdout, Err: r.stderr, Name: "skipperd"}
	if tenant := r.tenant; tenant >= 0 {
		sh.RoundTrip = func(req *server.Request) (*server.Response, error) {
			req.Tenant = &tenant
			return w.roundTrip(req)
		}
	}
	var input io.Reader = strings.NewReader(r.command)
	if r.command == "" {
		// A read from a terminal cannot be interrupted, so stdin is read
		// on a goroutine of its own and the pipe cut when ctx ends.
		pr, pw := io.Pipe()
		defer pr.Close()
		go func() { _, err := io.Copy(pw, stdin); pw.CloseWithError(err) }()
		defer context.AfterFunc(ctx, func() { pw.CloseWithError(ctx.Err()) })()
		input = pr
	}
	if !sh.Run(input) {
		return 1
	}
	return 0
}

// loadgen drives closed-loop load: `workers` connections, spread over
// tenants [0, tenants) unless -tenant pins one, each repeat the statement
// mix until the duration elapses or ctx ends. A failed connection or
// hello, and an error frame other than an overload rejection, count as
// failures. Latency is measured client-side into the server's sketch, so
// the report and the STATS verb agree on definitions.
func (r remote) loadgen(ctx context.Context, workers, tenants int, duration time.Duration) int {
	stmts := []string{"SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY n_name"}
	if r.command != "" {
		var last string
		if stmts, last = sql.SplitStatements(r.command); last != "" {
			stmts = append(stmts, strings.TrimSpace(last))
		}
	}
	workers = max(workers, 1)
	var (
		sketch                 metrics.LatencySketch
		done, rejected, failed atomic.Int64
		errMu                  sync.Mutex // one worker at a time on stderr
	)
	fail := func(i int, err error) {
		failed.Add(1)
		errMu.Lock()
		defer errMu.Unlock()
		fmt.Fprintf(r.stderr, "skipperd: worker %d: %v\n", i, err)
	}
	stop := time.Now().Add(duration)
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tn := r.tenant
			if tn < 0 {
				tn = i % max(tenants, 1)
			}
			w, err := dialWire(r.addr)
			if err != nil {
				fail(i, err)
				return
			}
			defer w.conn.Close()
			resp, err := w.roundTrip(&server.Request{Op: server.OpHello, Tenant: &tn})
			if err == nil && resp.Type == "error" {
				err = fmt.Errorf("%s error: %s", resp.Code, resp.Error)
			}
			if err != nil {
				fail(i, fmt.Errorf("hello: %w", err))
				return
			}
			for q := 0; time.Now().Before(stop) && ctx.Err() == nil; q++ {
				start := time.Now()
				resp, err := w.roundTrip(&server.Request{SQL: stmts[q%len(stmts)]})
				switch {
				case err != nil:
					fail(i, err)
					return
				case resp.Type == "result":
					sketch.Record(time.Since(start))
					done.Add(1)
				case resp.Code == server.CodeOverloaded:
					rejected.Add(1) // backpressure: expected under saturation
				default:
					fail(i, fmt.Errorf("%s error: %s", resp.Code, resp.Error))
				}
			}
		}()
	}
	wg.Wait()
	fmt.Fprintf(r.stdout, "loadgen: %d workers, %v: %d ok, %d rejected, %d failed, %.1f q/s\n",
		workers, duration, done.Load(), rejected.Load(), failed.Load(), float64(done.Load())/duration.Seconds())
	fmt.Fprintf(r.stdout, "loadgen: latency %s\n", sketch.Snapshot())

	// One final STATS frame: the server-side view of the same run.
	if w, err := dialWire(r.addr); err == nil {
		defer w.conn.Close()
		if resp, err := w.roundTrip(&server.Request{Op: server.OpStats}); err == nil && resp.Stats != nil {
			st := resp.Stats
			fmt.Fprintf(r.stdout, "server: %d in flight, %d queued; totals admitted=%d completed=%d rejected=%d expired=%d\n",
				st.Inflight, st.Queued, st.Total.Admitted, st.Total.Completed, st.Total.Rejected, st.Total.Expired)
		}
	}
	if failed.Load() > 0 {
		return 1
	}
	return 0
}
