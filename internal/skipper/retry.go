package skipper

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/csd"
	"repro/internal/segment"
	"repro/internal/trace"
)

// This file is the client proxy's recovery layer: the retry policy that
// turns the device's retryable faults — transient GET failures, crash
// windows with a scheduled restart, checksum-failed payloads — into
// re-requests with bounded exponential backoff, instead of fail-stopping
// the query. Non-retryable faults (scheduler contract violations,
// permanent crashes) still surface immediately; a retryable fault only
// surfaces once the policy's attempt cap or per-query budget is spent,
// wrapped in a RetryExhaustedError so callers can tell "the device was
// having a bad day" from "the query was wrong".

// RetryPolicy bounds the proxy's recovery behaviour. The zero value is
// not meaningful (Validate rejects it); use DefaultRetryPolicy as the
// base and override fields. A nil policy on a Client resolves to
// DefaultRetryPolicy.
type RetryPolicy struct {
	// MaxAttempts caps transfers of one object within one query — the
	// initial request plus retries. Must be >= 1.
	MaxAttempts int
	// BaseBackoff is the virtual-clock delay before the first retry;
	// each further retry doubles it up to MaxBackoff. The delay runs on
	// the simulated clock — the domain the device's faults live in — and
	// traced queries record each wait as a retry span carrying both
	// clocks.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// Budget caps total retries across all objects of one query, the
	// retry-storm brake: a device failing everything exhausts the budget
	// after Budget re-requests instead of multiplying every object's
	// attempts. 0 means the budget equals MaxAttempts (minimal but
	// functional); negative means unlimited.
	Budget int
}

// DefaultRetryPolicy is the stock recovery setting: a dozen attempts
// per object, quarter-second base backoff growing to eight seconds, and
// a per-query budget of 64 retries.
func DefaultRetryPolicy() *RetryPolicy {
	return &RetryPolicy{
		MaxAttempts: 12,
		BaseBackoff: 250 * time.Millisecond,
		MaxBackoff:  8 * time.Second,
		Budget:      64,
	}
}

// Validate rejects a malformed policy: fewer than one attempt per object,
// or a negative backoff.
func (rp *RetryPolicy) Validate() error {
	if rp.MaxAttempts < 1 {
		return fmt.Errorf("skipper: retry policy MaxAttempts %d < 1", rp.MaxAttempts)
	}
	if rp.BaseBackoff < 0 || rp.MaxBackoff < 0 {
		return errors.New("skipper: negative retry backoff")
	}
	return nil
}

// backoff returns the delay before retry number `retry` (1-based) of
// the object: exponential growth capped at MaxBackoff, scaled by a
// deterministic jitter in [0.5, 1.0) keyed on (object, retry). Jitter
// decorrelates the retry instants of different objects — without it,
// every object failed by one crash retries in lockstep — while two runs
// with the same policy, workload and fault plan back off identically,
// which the replayable chaos differential requires.
func (rp *RetryPolicy) backoff(obj segment.ObjectID, retry int) time.Duration {
	if rp.BaseBackoff == 0 {
		return 0
	}
	d := rp.BaseBackoff << (retry - 1)
	if shift := retry - 1; shift > 30 || d > rp.MaxBackoff || d < 0 {
		d = rp.MaxBackoff
	}
	frac := jitter(obj.String(), retry) // [0, 1)
	return d/2 + time.Duration(float64(d/2)*frac)
}

// jitter maps (object, retry) to [0, 1) with an FNV-1a/splitmix64 hash —
// the same construction the fault injector uses, independently salted by
// its inputs.
func jitter(object string, retry int) float64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(0) // a zero word leads the key, so recorded backoffs replay
	for i := 0; i < len(object); i++ {
		h ^= uint64(object[i])
		h *= prime64
	}
	mix(uint64(retry))
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

// RetryExhaustedError reports an object whose retryable faults outlived
// the policy: the attempt cap or the per-query budget ran out. Last is
// the final fault observed; errors.Is/As reach through it.
type RetryExhaustedError struct {
	Object segment.ObjectID
	// Attempts is how many transfers were tried for the object.
	Attempts int
	// BudgetSpent reports whether the per-query retry budget (rather
	// than the per-object attempt cap) ended the retries.
	BudgetSpent bool
	// Last is the fault the final attempt observed.
	Last error
}

func (e *RetryExhaustedError) Error() string {
	cause := "attempt cap"
	if e.BudgetSpent {
		cause = "query retry budget"
	}
	return fmt.Sprintf("skipper: retries exhausted for %v after %d attempts (%s): %v", e.Object, e.Attempts, cause, e.Last)
}

func (e *RetryExhaustedError) Unwrap() error { return e.Last }

// RetriesExhausted marks the error as final for csd.IsRetryable: the
// chain still unwraps to the underlying fault (errors.As keeps
// working), but nothing upstream should retry it again.
func (e *RetryExhaustedError) RetriesExhausted() {}

// retryState is the proxy's per-query recovery bookkeeping.
type retryState struct {
	policy *RetryPolicy
	// attempts counts transfers per object this query (first request
	// included).
	attempts map[segment.ObjectID]int
	// spent counts retries charged against the query budget.
	spent int
}

var defaultRetryPolicy = DefaultRetryPolicy() // shared read-only by clients without a Retry

// retryPolicy resolves a client's policy: nil is the default.
func retryPolicy(policy *RetryPolicy) *RetryPolicy {
	if policy == nil {
		return defaultRetryPolicy
	}
	return policy
}

// beginQuery resets the per-query caps (the first retry makes the map).
func (rs *retryState) beginQuery() {
	clear(rs.attempts)
	rs.spent = 0
}

// budgetLeft reports whether the query may charge another retry.
func (rs *retryState) budgetLeft() bool {
	b := rs.policy.Budget
	if b < 0 {
		return true
	}
	if b == 0 {
		b = rs.policy.MaxAttempts
	}
	return rs.spent < b
}

// classifyDelivery decides what the proxy does with one delivery.
type deliveryClass uint8

const (
	deliveryOK deliveryClass = iota
	deliveryRetryable
	deliveryCorrupt
	deliveryFatal
)

// classify inspects a delivery: an error delivery is retryable or
// fatal per csd.IsRetryable; a data delivery that fails its checksum is
// corrupt (retryable — the object in the store is intact, only the
// transfer was damaged).
func classify(d csd.Delivery) (deliveryClass, error) {
	if d.Err != nil {
		if csd.IsRetryable(d.Err) {
			return deliveryRetryable, d.Err
		}
		return deliveryFatal, d.Err
	}
	if err := d.Seg.VerifyChecksum(); err != nil {
		return deliveryCorrupt, err
	}
	return deliveryOK, nil
}

// canFailover reports whether a fatal delivery is recoverable through
// the fleet: the cause is a device-down error (a permanent crash, since
// restart windows classify as retryable) and the placement holds a live
// replica of the object on another device. NextArrival reclassifies
// such a delivery as retryable and retryDelivery fails over.
func (px *proxy) canFailover(d csd.Delivery) bool {
	var dde *csd.DeviceDownError
	if !errors.As(d.Err, &dde) {
		return false
	}
	_, ok := px.fl.Failover(d.Object, d.Device)
	return ok
}

// retryDelivery handles one faulty-but-recoverable delivery on the
// demand path: quarantine a corrupt payload out of the cache, back off
// on the virtual clock (cancellation-aware), and re-issue the GET. The
// replacement delivery arrives on the reply channel like any other.
// A device-down fault on an object with a live replica elsewhere fails
// over instead: the GET is re-issued to the replica immediately, with
// no backoff — the pacing that protects a recovering device would only
// delay a healthy one. Returns the error to surface when the policy is
// spent or the context fired; nil means the retry is in flight.
func (px *proxy) retryDelivery(d csd.Delivery, class deliveryClass, cause error) error {
	rs := &px.retry
	obj := d.Object
	if class == deliveryCorrupt {
		px.stats.CorruptDeliveries++
		if px.cache != nil {
			// The corrupt payload was never admitted (verification runs
			// before Put), but an earlier clean copy under the same id is
			// now suspect too: quarantine the key entirely.
			px.cache.Invalidate(obj)
		}
	} else if csd.IsRetryable(cause) {
		px.stats.TransientFaults++
	}
	target, failingOver := -1, false
	var dde *csd.DeviceDownError
	if errors.As(cause, &dde) {
		if t, ok := px.fl.Failover(obj, d.Device); ok {
			target, failingOver = t, true
		}
	}
	attempts := rs.attempts[obj]
	if attempts == 0 {
		attempts = 1 // the delivery being handled was attempt one
	}
	if attempts >= rs.policy.MaxAttempts {
		return &RetryExhaustedError{Object: obj, Attempts: attempts, Last: cause}
	}
	if !rs.budgetLeft() {
		return &RetryExhaustedError{Object: obj, Attempts: attempts, BudgetSpent: true, Last: cause}
	}
	if err := px.ctxDone(); err != nil {
		return err
	}
	var delay time.Duration
	if !failingOver {
		delay = rs.policy.backoff(obj, attempts)
	}
	var wallFrom time.Time
	virtFrom := px.proc.Now()
	if px.tr.Enabled() {
		wallFrom = time.Now()
	}
	if delay > 0 {
		px.proc.Sleep(delay)
		px.stats.RetryBackoff += delay
	}
	// A context that fired mid-backoff wins over the retry: the query is
	// being torn down, do not re-request on its behalf.
	if err := px.ctxDone(); err != nil {
		return err
	}
	if rs.attempts == nil {
		rs.attempts = make(map[segment.ObjectID]int)
	}
	rs.attempts[obj] = attempts + 1
	rs.spent++
	px.stats.Retries++
	px.stats.GetsIssued++ // the re-request is a real GET: conservation holds
	if failingOver {
		px.stats.Failovers++
		if px.tr.Enabled() {
			px.tr.EmitVirtDev(trace.CatRetry, fmt.Sprintf("%v failover d%d->d%d", obj, d.Device, target), wallFrom, virtFrom, px.proc.Now(), target)
		}
	} else {
		target = px.fl.Choose(obj)
		if px.tr.Enabled() {
			px.tr.EmitVirtDev(trace.CatRetry, fmt.Sprintf("%v attempt %d", obj, attempts+1), wallFrom, virtFrom, px.proc.Now(), target)
		}
	}
	px.stats.addDeviceGet(target)
	px.fl.device(target).Submit(px.proc, &csd.Request{Object: obj, QueryID: px.query, Tenant: px.tenant, Reply: px.reply})
	return nil
}

// ctxDone adapts the client context into the proxy's error shape.
func (px *proxy) ctxDone() error {
	if px.ctx == nil {
		return nil
	}
	if err := px.ctx.Err(); err != nil {
		return fmt.Errorf("tenant %d: query canceled during fault recovery: %w", px.tenant, err)
	}
	return nil
}
