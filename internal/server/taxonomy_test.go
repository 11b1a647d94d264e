// Error-taxonomy audit: every failure class the server can hand a
// client maps to a stable machine-readable code, and the fault-layer
// errors underneath stay typed (errors.Is / errors.As) all the way up.
// The over-the-wire table drives one request per class — including the
// transient-exhaustion, corrupt-exhaustion and crash classes the fault
// layer introduced — and asserts code + message shape; the
// classification table pins how the typed errors answer IsRetryable /
// isFaultError / errors.Is(ErrCorrupt).
package server

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/csd"
	"repro/internal/faults"
	"repro/internal/segment"
	"repro/internal/skipper"
)

// isFaultError reports whether an error came from the fault/recovery
// machinery — an exhausted retry, a device crash, a transient failure or a
// corrupt payload — as opposed to a planning or execution bug.
func isFaultError(err error) bool {
	var re *skipper.RetryExhaustedError
	var de *csd.DeviceDownError
	var te *csd.TransientError
	return errors.As(err, &re) || errors.As(err, &de) || errors.As(err, &te) || errors.Is(err, segment.ErrCorrupt)
}

// tinyRetry exhausts fast: three attempts, millisecond backoffs.
func tinyRetry() *skipper.RetryPolicy {
	return &skipper.RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  time.Millisecond,
		Budget:      -1,
	}
}

func TestErrorTaxonomyOverWire(t *testing.T) {
	intp := func(v int) *int { return &v }
	cases := []struct {
		name string
		// faults/retry configure the server for this row (nil = clean).
		faults *faults.Plan
		retry  *skipper.RetryPolicy
		// pre is an optional frame sent first (session setup).
		pre *Request
		// raw, when set, is written verbatim instead of encoding req.
		raw      string
		req      Request
		wantCode string
		wantMsg  string
	}{
		{
			name:     "protocol: malformed json",
			raw:      "{not json}\n",
			wantCode: CodeProtocol,
		},
		{
			name:     "protocol: unknown op",
			req:      Request{ID: "t1", Op: "frobnicate"},
			wantCode: CodeProtocol,
			wantMsg:  "unknown op",
		},
		{
			name:     "plan: unknown table",
			req:      Request{ID: "t2", SQL: "SELECT x FROM nosuch"},
			wantCode: CodePlan,
		},
		{
			name:     "tenant: out of range",
			req:      Request{ID: "t3", Tenant: intp(1 << 20), SQL: servingQuery},
			wantCode: CodeTenant,
			wantMsg:  "out of range",
		},
		{
			name:     "tenant: switch after binding",
			pre:      &Request{ID: "pre", Op: OpHello, Tenant: intp(0)},
			req:      Request{ID: "t4", Tenant: intp(1), SQL: servingQuery},
			wantCode: CodeTenant,
			wantMsg:  "bound to tenant",
		},
		{
			name:     "not_found: unknown trace id",
			req:      Request{ID: "t5", Op: OpTrace, TraceID: "deadbeef"},
			wantCode: CodeNotFound,
		},
		{
			name: "deadline: fault storm outlives the budget",
			// Every transfer faults forever; the huge attempt cap keeps the
			// proxy retrying (virtual-time backoffs cost no real time) until
			// the 50ms wall deadline cancels the run mid-recovery.
			faults: &faults.Plan{Seed: 11, TransientRate: 1.0, MaxFaultsPerObject: -1},
			retry: &skipper.RetryPolicy{
				MaxAttempts: 1 << 20,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  time.Millisecond,
				Budget:      -1,
			},
			req:      Request{ID: "t6", SQL: servingQuery, DeadlineMS: 50},
			wantCode: CodeDeadline,
		},
		{
			name:     "exec: transient faults exhaust retries",
			faults:   &faults.Plan{Seed: 11, TransientRate: 1.0, MaxFaultsPerObject: -1},
			retry:    tinyRetry(),
			req:      Request{ID: "t7", SQL: servingQuery},
			wantCode: CodeExec,
			wantMsg:  "retries exhausted",
		},
		{
			name:     "exec: corruption exhausts retries",
			faults:   &faults.Plan{Seed: 11, CorruptRate: 1.0, MaxFaultsPerObject: -1},
			retry:    tinyRetry(),
			req:      Request{ID: "t8", SQL: servingQuery},
			wantCode: CodeExec,
			wantMsg:  "corrupt",
		},
		{
			name:     "exec: permanent device crash",
			faults:   &faults.Plan{Seed: 7, CrashAt: 15 * time.Second},
			req:      Request{ID: "t9", SQL: servingQuery},
			wantCode: CodeExec,
			wantMsg:  "crashed (no restart)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := servingConfig(t)
			cfg.Fleet.Faults = tc.faults
			cfg.Retry = tc.retry
			_, addr := startServer(t, cfg)
			c := dialServer(t, addr)
			if tc.pre != nil {
				if resp := c.roundTrip(t, *tc.pre); resp.Type == "error" {
					t.Fatalf("setup frame failed: %+v", resp)
				}
			}
			var resp *Response
			if tc.raw != "" {
				c.sendRaw(t, tc.raw)
				resp = c.recv(t)
			} else {
				resp = c.roundTrip(t, tc.req)
			}
			if resp.Type != "error" {
				t.Fatalf("want error frame, got %+v", resp)
			}
			if resp.Code != tc.wantCode {
				t.Fatalf("code = %q (error %q), want %q", resp.Code, resp.Error, tc.wantCode)
			}
			if tc.wantMsg != "" && !strings.Contains(resp.Error, tc.wantMsg) {
				t.Fatalf("error %q does not mention %q", resp.Error, tc.wantMsg)
			}
			// The session survives a typed error: the next frame works.
			if tc.raw == "" {
				if hello := c.roundTrip(t, Request{ID: "after", Op: OpHello}); hello.Type != "hello" {
					t.Fatalf("session dead after typed error: %+v", hello)
				}
			}
		})
	}
}

// TestFaultErrorClassification pins the typed-error contract underneath
// the wire codes: which errors the proxy retries, which the fault
// helpers recognize, and that wrapping preserves errors.Is / errors.As
// all the way through RetryExhaustedError.
func TestFaultErrorClassification(t *testing.T) {
	obj := segment.ObjectID{Table: "r", Index: 1}
	cases := []struct {
		name      string
		err       error
		retryable bool
		fault     bool
	}{
		{"transient", &csd.TransientError{Object: obj, Attempt: 1}, true, true},
		{"down restarting", &csd.DeviceDownError{Object: obj, Restarting: true}, true, true},
		{"down permanent", &csd.DeviceDownError{Object: obj}, false, true},
		{"corrupt (wrapped)", fmt.Errorf("decode: %w", segment.ErrCorrupt), false, true},
		{"retries exhausted", &skipper.RetryExhaustedError{Object: obj, Attempts: 3, Last: &csd.TransientError{Object: obj}}, false, true},
		{"plain error", errors.New("boom"), false, false},
		{"context deadline", context.DeadlineExceeded, false, false},
		{"nil", nil, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := csd.IsRetryable(tc.err); got != tc.retryable {
				t.Errorf("IsRetryable = %v, want %v", got, tc.retryable)
			}
			if got := isFaultError(tc.err); got != tc.fault {
				t.Errorf("isFaultError = %v, want %v", got, tc.fault)
			}
		})
	}

	// Wrapping contract: exhaustion unwraps to its final fault.
	var exhausted *skipper.RetryExhaustedError
	err := fmt.Errorf("query failed: %w", &skipper.RetryExhaustedError{
		Object: obj, Attempts: 2, Last: &csd.TransientError{Object: obj, Attempt: 2},
	})
	if !errors.As(err, &exhausted) {
		t.Fatal("errors.As failed to find RetryExhaustedError through wrapping")
	}
	var transient *csd.TransientError
	if !errors.As(err, &transient) {
		t.Fatal("errors.As failed to reach the underlying TransientError")
	}

	// ctx errors map to their wire codes.
	if ctxCode(context.DeadlineExceeded) != CodeDeadline {
		t.Error("DeadlineExceeded must map to the deadline code")
	}
	if ctxCode(context.Canceled) != CodeCanceled {
		t.Error("Canceled must map to the canceled code")
	}
}
