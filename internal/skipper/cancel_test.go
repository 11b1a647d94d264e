// Context-cancellation suite: the serving layer threads per-query
// deadlines into client runs via skipper.Client.Ctx, so a canceled or
// deadline-expired workload must abort with an error wrapping the
// context's error and drain exactly like the fail-stop paths — no
// deadlock, no leaked goroutines. Runs under CI's -race job.
package skipper_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/lattice"
	"repro/internal/skipper"
)

// runCanceled executes the probe workload on one client bound to ctx,
// with the prefetcher running and a shared cache so every drain path is
// armed.
func runCanceled(t *testing.T, ctx context.Context, mode skipper.Mode) (*skipper.RunResult, error) {
	t.Helper()
	p := newProbe(t)
	cell := p.cell
	cell.Mode, cell.PrefetchBytes = mode, lattice.PrefetchOn
	cl := p.cluster(cell, 1)
	cl.Clients[0].Ctx = ctx
	return cl.Run()
}

// TestClientContextExpiredDrains: a context that is already expired
// when the run starts must abort before any query executes, with an
// error wrapping context.DeadlineExceeded, and leave no goroutines
// behind despite the armed prefetcher.
func TestClientContextExpiredDrains(t *testing.T) {
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			defer cancel()
			_, err := runCanceled(t, ctx, mode)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
			}
			requireDrained(t, baseline)
		})
	}
}

// TestClientContextCancelMidRunDrains cancels the context from a timer
// racing the workload. Whether the cancel lands before, during or after
// the run, the invariants hold: an error, if any, wraps
// context.Canceled; results, if any, are complete per query; and the
// drain leaves no goroutines.
func TestClientContextCancelMidRunDrains(t *testing.T) {
	for _, delay := range []time.Duration{0, 500 * time.Microsecond, 5 * time.Millisecond} {
		t.Run(fmt.Sprint(delay), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(delay, cancel)
			defer timer.Stop()
			defer cancel()
			_, err := runCanceled(t, ctx, skipper.ModeSkipper)
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v does not wrap context.Canceled", err)
			}
			requireDrained(t, baseline)
		})
	}
}

// TestClientNilContextUnchanged pins the default: a client without a
// Ctx runs to completion exactly as before the field existed.
func TestClientNilContextUnchanged(t *testing.T) {
	res, err := runCanceled(t, nil, skipper.ModeSkipper)
	if err != nil {
		t.Fatalf("nil-context run failed: %v", err)
	}
	if got := len(res.Clients[0].PerQuery); got != 4 {
		t.Fatalf("nil-context run executed %d of 4 queries", got)
	}
}
