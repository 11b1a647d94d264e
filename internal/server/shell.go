package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sql"
	"repro/internal/trace"
)

// This file is the client's side of the statement path, shared by the
// front ends: skipperql runs it over an in-process Session, skipperd
// -client over a socket, and neither has a loop or a renderer of its own,
// so the two cannot print different things for the same response.

// Render writes one response frame for a person. A result prints its rows
// (the first 40, then a total), a row count and its footer; explain, stats,
// trace and hello frames print their payload. An error frame, or one that
// cannot be rendered, is returned as an error instead of written: its
// place is the caller's stderr.
func Render(w io.Writer, resp *Response) error {
	const maxRows = 40
	switch resp.Type {
	case "result":
		for i, r := range resp.Rows {
			if i >= maxRows {
				fmt.Fprintf(w, "... (%d rows total)\n", resp.RowCount)
				break
			}
			fmt.Fprintln(w, r)
		}
		if resp.RowCount <= maxRows {
			fmt.Fprintf(w, "(%d rows)\n", resp.RowCount)
		}
		renderFooter(w, resp)
	case "explain":
		io.WriteString(w, resp.Plan)
	case "stats":
		out, err := json.MarshalIndent(resp.Stats, "", "  ")
		if err != nil {
			return fmt.Errorf("render stats: %w", err)
		}
		fmt.Fprintln(w, string(out))
	case "trace":
		if resp.Trace == nil {
			return fmt.Errorf("empty trace frame")
		}
		resp.Trace.Render(w)
	case "hello":
		fmt.Fprintf(w, "-- bound to tenant %d\n", resp.Tenant)
	case "error":
		return fmt.Errorf("%s error: %s", resp.Code, resp.Error)
	default:
		return fmt.Errorf("unexpected frame type %q", resp.Type)
	}
	return nil
}

// renderFooter prints a result frame's account of the run: the time and
// traffic line, then a line each for the fleet, faults and recovery, the
// segment cache, decode work and prefetch when the frame carries them.
// Whether a line appears depends on counted quantities only, never on
// host time, so two runs of a statement print the same lines.
func renderFooter(w io.Writer, r *Response) {
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
	fmt.Fprintf(w, "-- %.1fs virtual (processing %.1fs, stalled %.1fs), %s queued, %s wall, %d GETs (%d from cache, %d pruned), %d switches\n",
		us(r.VirtualUS).Seconds(), us(r.ProcessingUS).Seconds(), us(r.StalledUS).Seconds(),
		us(r.QueueUS), us(r.WallUS), r.Gets, r.CacheHits, r.Pruned, r.Switches)
	if len(r.DeviceGets) > 0 {
		parts := make([]string, len(r.DeviceGets))
		for d, n := range r.DeviceGets {
			parts[d] = fmt.Sprintf("d%d:%d", d, n)
		}
		fmt.Fprintf(w, "-- fleet: %d devices, GETs %s\n", len(parts), strings.Join(parts, " "))
	}
	if r.Retries+r.TransientFaults+r.CorruptDeliveries+r.Crashes > 0 {
		fmt.Fprintf(w, "-- faults: %d transient, %d corrupt, %d crashes; recovered with %d retries (%.1fs backoff), %d failovers\n",
			r.TransientFaults, r.CorruptDeliveries, r.Crashes, r.Retries, us(r.BackoffUS).Seconds(), r.Failovers)
	}
	if r.SegCacheBudget > 0 {
		fmt.Fprintf(w, "-- segcache: %d objects resident (%s of %s budget, %d bytes kept decoded), %.0f%% lifetime hit ratio\n",
			r.SegCacheEntries, gb(r.SegCacheBytes), gb(r.SegCacheBudget), r.SegCacheDecoded,
			100*metrics.HitRatio(r.SegCacheHits, r.SegCacheMisses))
	}
	if r.BytesFetched > 0 {
		fmt.Fprintf(w, "-- decode: %d bytes fetched, %d decoded, %d skipped by projection (%.0f%%), %d materialized; %s busy\n",
			r.BytesFetched, r.BytesDecoded, r.BytesSkipped,
			100*metrics.ProjectionRatio(r.BytesDecoded, r.BytesSkipped), r.BytesMaterialized, us(r.DecodeBusyUS))
	}
	if r.PrefetchIssued+r.PrefetchServed+r.PrefetchUseful > 0 {
		fmt.Fprintf(w, "-- prefetch: %d issued, %d served staged, %d useful\n", r.PrefetchIssued, r.PrefetchServed, r.PrefetchUseful)
	}
}

// gb renders a byte count as gigabytes.
func gb(b int64) string { return fmt.Sprintf("%.0f GB", float64(b)/1e9) }

// Shell is the statement loop of both front ends: it reads ';'-terminated
// statements (which may span lines; the text left at end of input counts
// as a last one), carries each to a server through RoundTrip and renders
// the response — frames to Out, error frames and transport errors,
// prefixed with Name, to Err.
type Shell struct {
	// RoundTrip carries one request to a server and returns its response:
	// Session.RoundTrip in process, a socket client over the wire.
	RoundTrip func(*Request) (*Response, error)
	Out, Err  io.Writer
	Name      string
	// Interactive prints a prompt before every line read.
	Interactive bool
	// ShowTrace follows every traced response with its span tree (the
	// TRACE verb on the response's trace id).
	ShowTrace bool
	// Meta, when set, handles a backslash command other than \q, typed on
	// a line of its own between statements.
	Meta func(cmd string)
}

// Run reads statements from r until end of input or a quit command (\q,
// quit or exit on a line of their own) and reports whether every one of
// them succeeded.
func (sh *Shell) Run(r io.Reader) bool {
	ok := true
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	pending := "" // the statement in progress
	for {
		if sh.Interactive && pending == "" {
			fmt.Fprint(sh.Out, "> ")
		} else if sh.Interactive {
			fmt.Fprint(sh.Out, "… ")
		}
		if !scanner.Scan() {
			break
		}
		line := scanner.Text()
		if cmd := strings.TrimSpace(line); pending == "" {
			if cmd == `\q` || cmd == "quit" || cmd == "exit" {
				return ok
			}
			if strings.HasPrefix(cmd, `\`) && sh.Meta != nil {
				sh.Meta(cmd)
				continue
			}
		}
		var stmts []string
		stmts, pending = sql.SplitStatements(pending + line + "\n")
		for _, stmt := range stmts {
			ok = sh.Exec(stmt) && ok
		}
	}
	if err := scanner.Err(); err != nil {
		fmt.Fprintf(sh.Err, "%s: read: %v\n", sh.Name, err)
		ok = false
	}
	if pending != "" {
		ok = sh.Exec(strings.TrimSpace(pending)) && ok
	}
	return ok
}

// Exec runs one statement and renders its response, reporting whether it
// succeeded.
func (sh *Shell) Exec(stmt string) bool {
	resp, ok := sh.do(&Request{SQL: stmt})
	if ok && sh.ShowTrace && resp.TraceID != "" {
		_, ok = sh.do(&Request{Op: OpTrace, TraceID: resp.TraceID})
	}
	return ok
}

func (sh *Shell) do(req *Request) (*Response, bool) {
	resp, err := sh.RoundTrip(req)
	if err == nil {
		err = Render(sh.Out, resp)
	}
	if err != nil {
		fmt.Fprintf(sh.Err, "%s: %v\n", sh.Name, err)
	}
	return resp, err == nil
}

// ChromeTraceDir returns a Config.TraceSink that writes every completed
// trace as <dir>/<trace-id>.json in Chrome trace-event format. Trace ids
// contain no path separators (t<tenant>-<seq>).
func ChromeTraceDir(dir string) func(*trace.Export) {
	return func(e *trace.Export) { writeChrome(filepath.Join(dir, e.ID+".json"), e) }
}

// ChromeTraceFile returns a Config.TraceSink that keeps one Chrome
// trace-event file of every trace so far, rewritten as each completes, so
// the file is whole after every statement.
func ChromeTraceFile(path string) func(*trace.Export) {
	var (
		mu  sync.Mutex
		all []*trace.Export
	)
	return func(e *trace.Export) {
		mu.Lock()
		defer mu.Unlock()
		all = append(all, e)
		writeChrome(path, all...)
	}
}

// writeChrome writes the traces to path. Failures are reported, not
// fatal — tracing must never take a server down.
func writeChrome(path string, traces ...*trace.Export) {
	f, err := os.Create(path)
	if err == nil {
		err = trace.WriteChrome(f, traces...)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace file: %v\n", err)
	}
}
