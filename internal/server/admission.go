package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// ErrOverloaded is the typed backpressure rejection: the admission
// queue is full, so the query is refused immediately rather than
// stalled. Clients see it as an "overloaded" error frame and are
// expected to back off and retry.
var ErrOverloaded = errors.New("server overloaded: admission queue full")

// AdmissionConfig sizes the admission controller.
type AdmissionConfig struct {
	// Slots bounds queries executing concurrently, across all tenants.
	// Default 4.
	Slots int
	// TenantSlots bounds one tenant's share of Slots: while other
	// tenants wait, no tenant occupies more than this many slots.
	// Default (0) and values > Slots clamp to Slots.
	TenantSlots int
	// QueueDepth bounds queries waiting for a slot, across all tenants.
	// A query arriving with the queue full is rejected with
	// ErrOverloaded. Default 4×Slots; negative means no queueing (every
	// query not admissible immediately is rejected).
	QueueDepth int
	// Now is the controller's clock, injectable for tests. Default
	// time.Now.
	Now func() time.Time
}

// withDefaults resolves the zero values.
func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.Slots <= 0 {
		c.Slots = 4
	}
	if c.TenantSlots <= 0 || c.TenantSlots > c.Slots {
		c.TenantSlots = c.Slots
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Slots
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// waiter is one queued admission request.
type waiter struct {
	tenant  int
	ready   chan struct{} // closed on grant
	granted bool
	at      time.Time // enqueue instant (queue-wait accounting)
}

// Admission is the controller in front of execution: a bounded
// in-flight semaphore with per-tenant quotas, fair (round-robin across
// tenants, FIFO within a tenant) dispatch of queued queries, and
// queue-depth backpressure. All methods are safe for concurrent use.
type Admission struct {
	cfg AdmissionConfig

	mu        sync.Mutex
	inflight  int
	byTenant  map[int]int       // slots held per tenant
	queues    map[int][]*waiter // waiting, FIFO per tenant
	queued    int               // total waiters
	ring      []int             // tenant ids in first-seen order
	ringIndex map[int]int       // tenant id → position in ring
	cursor    int               // ring position of the last grant
	// held lists the grants whose release has not run, by number; grants
	// numbers them.
	held   []uint64
	grants uint64
}

// NewAdmission builds a controller from the (defaulted) config.
func NewAdmission(cfg AdmissionConfig) *Admission {
	return &Admission{
		cfg:       cfg.withDefaults(),
		byTenant:  make(map[int]int),
		queues:    make(map[int][]*waiter),
		ringIndex: make(map[int]int),
	}
}

// Config returns the resolved configuration.
func (a *Admission) Config() AdmissionConfig { return a.cfg }

// Acquire blocks until the tenant is granted an execution slot, the
// queue rejects the request, or ctx is done. It returns the release
// function (idempotent; must be called exactly once when granted), the
// time spent waiting in the queue, and the verdict: nil, an error
// wrapping ErrOverloaded (queue full), or an error wrapping ctx.Err()
// (canceled / deadline expired while waiting).
func (a *Admission) Acquire(ctx context.Context, tenant int) (release func(), wait time.Duration, err error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, 0, fmt.Errorf("admission: tenant %d: %w", tenant, err)
		}
	}
	a.mu.Lock()
	a.ensureTenant(tenant)
	if a.queued == 0 && a.inflight < a.cfg.Slots && a.byTenant[tenant] < a.cfg.TenantSlots {
		// Nobody waits, so there is no longer-waiting tenant to favour: the
		// grant dispatch would make, without a waiter.
		a.inflight++
		a.byTenant[tenant]++
		a.cursor = a.ringIndex[tenant]
		release = a.releaseFunc(tenant)
		a.mu.Unlock()
		return release, 0, nil
	}
	w := &waiter{tenant: tenant, ready: make(chan struct{}), at: a.cfg.Now()}
	a.queues[tenant] = append(a.queues[tenant], w)
	a.queued++
	// Dispatch immediately: with free slots and quota headroom the
	// newcomer (or a longer-waiting eligible tenant — fairness beats
	// arrival order across tenants) is granted synchronously.
	a.dispatchLocked()
	if w.granted {
		release = a.releaseFunc(tenant)
		a.mu.Unlock()
		return release, 0, nil
	}
	// Backpressure counts genuine waiters only: a query granted on
	// arrival was never queued.
	if a.queued > a.cfg.QueueDepth {
		a.removeWaiterLocked(w)
		err := fmt.Errorf("admission: tenant %d: %w (%d in flight, %d queued)",
			tenant, ErrOverloaded, a.inflight, a.cfg.QueueDepth)
		a.mu.Unlock()
		return nil, 0, err
	}
	a.mu.Unlock()

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-w.ready:
		a.mu.Lock()
		wait = a.cfg.Now().Sub(w.at)
		release = a.releaseFunc(tenant)
		a.mu.Unlock()
		return release, wait, nil
	case <-done:
		a.mu.Lock()
		wait = a.cfg.Now().Sub(w.at)
		if w.granted {
			// The grant raced the cancellation: the slot is ours, so give
			// it back (which re-dispatches to the next waiter).
			a.releaseLocked(tenant)
		} else {
			a.removeWaiterLocked(w)
		}
		a.mu.Unlock()
		return nil, wait, fmt.Errorf("admission: tenant %d: %w", tenant, ctx.Err())
	}
}

// ensureTenant registers a tenant in the round-robin ring. Caller holds
// a.mu.
func (a *Admission) ensureTenant(tenant int) {
	if _, ok := a.ringIndex[tenant]; ok {
		return
	}
	a.ringIndex[tenant] = len(a.ring)
	a.ring = append(a.ring, tenant)
}

// dispatchLocked grants free slots to queued waiters in fair order:
// round-robin across tenants starting after the last-granted one, FIFO
// within each tenant, skipping tenants at their quota. Caller holds
// a.mu.
func (a *Admission) dispatchLocked() {
	for a.inflight < a.cfg.Slots && a.queued > 0 {
		granted := false
		n := len(a.ring)
		for i := 1; i <= n; i++ {
			pos := (a.cursor + i) % n
			t := a.ring[pos]
			q := a.queues[t]
			if len(q) == 0 || a.byTenant[t] >= a.cfg.TenantSlots {
				continue
			}
			w := q[0]
			a.queues[t] = q[1:]
			a.queued--
			w.granted = true
			close(w.ready)
			a.inflight++
			a.byTenant[t]++
			a.cursor = pos
			granted = true
			break
		}
		if !granted {
			return // every waiter's tenant is at quota
		}
	}
}

// removeWaiterLocked drops an ungranted waiter from its tenant queue.
// Caller holds a.mu.
func (a *Admission) removeWaiterLocked(w *waiter) {
	q := a.queues[w.tenant]
	for i, x := range q {
		if x == w {
			a.queues[w.tenant] = append(q[:i:i], q[i+1:]...)
			a.queued--
			return
		}
	}
}

// releaseFunc numbers a grant and returns its release, which runs
// releaseLocked once: a second call (e.g. from deferred cleanup plus an
// error path) finds the grant gone from held and does nothing. The
// closure is the one allocation. Caller holds a.mu.
func (a *Admission) releaseFunc(tenant int) func() {
	a.grants++
	id := a.grants
	a.held = append(a.held, id)
	return func() {
		a.mu.Lock()
		if i := slices.Index(a.held, id); i >= 0 {
			a.held[i] = a.held[len(a.held)-1]
			a.held = a.held[:len(a.held)-1]
			a.releaseLocked(tenant)
		}
		a.mu.Unlock()
	}
}

// releaseLocked returns a slot and re-dispatches. Caller holds a.mu.
func (a *Admission) releaseLocked(tenant int) {
	a.inflight--
	a.byTenant[tenant]--
	a.dispatchLocked()
}

// Occupancy reports the controller's live state: slots in use and
// waiters queued.
func (a *Admission) Occupancy() (inflight, queued int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight, a.queued
}
