package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is the injectable time source of the admission tests: no
// test below ever sleeps to make a deadline pass.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// acquireResult is one Acquire outcome collected from a goroutine.
type acquireResult struct {
	tenant  int
	release func()
	wait    time.Duration
	err     error
}

// acquireAsync starts an Acquire in a goroutine and returns the channel
// its outcome lands on.
func acquireAsync(a *Admission, ctx context.Context, tenant int) <-chan acquireResult {
	ch := make(chan acquireResult, 1)
	go func() {
		release, wait, err := a.Acquire(ctx, tenant)
		ch <- acquireResult{tenant: tenant, release: release, wait: wait, err: err}
	}()
	return ch
}

// mustAcquire admits synchronously or fails the test.
func mustAcquire(t *testing.T, a *Admission, tenant int) func() {
	t.Helper()
	release, _, err := a.Acquire(context.Background(), tenant)
	if err != nil {
		t.Fatalf("tenant %d not admitted: %v", tenant, err)
	}
	return release
}

// waitQueued blocks until the controller reports n waiters (the
// goroutines have parked) or times out.
func waitQueued(t *testing.T, a *Admission, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, queued := a.Occupancy(); queued == n {
			return
		}
		if time.Now().After(deadline) {
			_, queued := a.Occupancy()
			t.Fatalf("queue never reached %d waiters (at %d)", n, queued)
		}
		time.Sleep(time.Millisecond)
	}
}

// expectResult receives one outcome with a test timeout.
func expectResult(t *testing.T, ch <-chan acquireResult) acquireResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("Acquire did not return")
		return acquireResult{}
	}
}

// expectPending asserts no outcome is ready yet.
func expectPending(t *testing.T, ch <-chan acquireResult) {
	t.Helper()
	select {
	case r := <-ch:
		t.Fatalf("Acquire returned early: %+v", r)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestAdmissionImmediate: free slots under quota admit synchronously
// with zero recorded queue wait.
func TestAdmissionImmediate(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Slots: 2, Now: newFakeClock().Now})
	r1 := mustAcquire(t, a, 0)
	r2 := mustAcquire(t, a, 1)
	if inflight, queued := a.Occupancy(); inflight != 2 || queued != 0 {
		t.Fatalf("occupancy = %d/%d, want 2/0", inflight, queued)
	}
	r1()
	r2()
	if inflight, _ := a.Occupancy(); inflight != 0 {
		t.Fatalf("slots not returned: %d in flight", inflight)
	}
}

// TestAdmissionOverloadRejects: with all slots busy and the queue at
// depth, the next query is rejected with an error wrapping the typed
// ErrOverloaded — never stalled.
func TestAdmissionOverloadRejects(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Slots: 1, QueueDepth: 1, Now: newFakeClock().Now})
	release := mustAcquire(t, a, 0)
	defer release()
	queued := acquireAsync(a, context.Background(), 0)
	waitQueued(t, a, 1)
	_, _, err := a.Acquire(context.Background(), 0)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full queue returned %v, want ErrOverloaded", err)
	}
	// The rejected query must not have displaced the queued one.
	release()
	r := expectResult(t, queued)
	if r.err != nil {
		t.Fatalf("queued query lost its place: %v", r.err)
	}
	r.release()
}

// TestAdmissionTenantQuota: one tenant cannot occupy more than its
// TenantSlots share while slots remain for others.
func TestAdmissionTenantQuota(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Slots: 2, TenantSlots: 1, QueueDepth: 8, Now: newFakeClock().Now})
	r0 := mustAcquire(t, a, 0)
	// Tenant 0 is at quota: its second query queues even though a slot
	// is free...
	second := acquireAsync(a, context.Background(), 0)
	waitQueued(t, a, 1)
	expectPending(t, second)
	// ...and tenant 1 takes that slot immediately.
	r1 := mustAcquire(t, a, 1)
	// Only when tenant 0 releases does its queued query run.
	r0()
	r := expectResult(t, second)
	if r.err != nil {
		t.Fatalf("queued query failed: %v", r.err)
	}
	r.release()
	r1()
}

// TestAdmissionFairDispatch: queued queries admit in round-robin order
// across tenants (FIFO within a tenant) as slots free, regardless of
// arrival order.
func TestAdmissionFairDispatch(t *testing.T) {
	fc := newFakeClock()
	a := NewAdmission(AdmissionConfig{Slots: 1, QueueDepth: 8, Now: fc.Now})
	release := mustAcquire(t, a, 0)

	// Enqueue, in arrival order: t1a, t1b, t2a, t0a. Queue them one at
	// a time so the per-tenant FIFO order is deterministic.
	t1a := acquireAsync(a, context.Background(), 1)
	waitQueued(t, a, 1)
	t1b := acquireAsync(a, context.Background(), 1)
	waitQueued(t, a, 2)
	t2a := acquireAsync(a, context.Background(), 2)
	waitQueued(t, a, 3)
	t0a := acquireAsync(a, context.Background(), 0)
	waitQueued(t, a, 4)

	// Fair order from cursor at tenant 0: t1a (first eligible after 0),
	// then t2a (round-robin passes tenant 1's second waiter), then t0a,
	// then t1b.
	want := []<-chan acquireResult{t1a, t2a, t0a, t1b}
	wantTenant := []int{1, 2, 0, 1}
	current := release
	for i, ch := range want {
		current() // free the slot; fair dispatch picks the next waiter
		r := expectResult(t, ch)
		if r.err != nil {
			t.Fatalf("grant %d: %v", i, r.err)
		}
		if r.tenant != wantTenant[i] {
			t.Fatalf("grant %d went to tenant %d, want %d", i, r.tenant, wantTenant[i])
		}
		for _, other := range want[i+1:] {
			expectPending(t, other)
		}
		current = r.release
	}
	current()
}

// TestAdmissionQueueWaitClock: the reported queue wait is measured on
// the injected clock.
func TestAdmissionQueueWaitClock(t *testing.T) {
	fc := newFakeClock()
	a := NewAdmission(AdmissionConfig{Slots: 1, QueueDepth: 4, Now: fc.Now})
	release := mustAcquire(t, a, 0)
	queued := acquireAsync(a, context.Background(), 1)
	waitQueued(t, a, 1)
	fc.Advance(250 * time.Millisecond)
	release()
	r := expectResult(t, queued)
	if r.err != nil {
		t.Fatal(r.err)
	}
	defer r.release()
	if r.wait != 250*time.Millisecond {
		t.Fatalf("queue wait %v, want 250ms (fake clock)", r.wait)
	}
}

// TestAdmissionCancelWhileQueued: a context canceled while waiting
// removes the waiter — the slot later goes to the next query, and the
// canceled Acquire reports the context error.
func TestAdmissionCancelWhileQueued(t *testing.T) {
	fc := newFakeClock()
	a := NewAdmission(AdmissionConfig{Slots: 1, QueueDepth: 4, Now: fc.Now})
	release := mustAcquire(t, a, 0)
	ctx, cancel := context.WithCancel(context.Background())
	doomed := acquireAsync(a, ctx, 1)
	waitQueued(t, a, 1)
	survivor := acquireAsync(a, context.Background(), 2)
	waitQueued(t, a, 2)
	fc.Advance(10 * time.Millisecond)
	cancel()
	r := expectResult(t, doomed)
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v, want context.Canceled", r.err)
	}
	if r.wait != 10*time.Millisecond {
		t.Fatalf("canceled waiter waited %v on the fake clock, want 10ms", r.wait)
	}
	if _, queued := a.Occupancy(); queued != 1 {
		t.Fatalf("canceled waiter still queued: %d waiters", queued)
	}
	release()
	s := expectResult(t, survivor)
	if s.err != nil || s.tenant != 2 {
		t.Fatalf("slot did not pass to the surviving waiter: %+v", s)
	}
	s.release()
	// All slots must be back: the canceled waiter never held one.
	if inflight, queued := a.Occupancy(); inflight != 0 || queued != 0 {
		t.Fatalf("occupancy after drain = %d/%d, want 0/0", inflight, queued)
	}
}

// TestAdmissionExpiredContext: a context already done never enters the
// controller.
func TestAdmissionExpiredContext(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Slots: 1, Now: newFakeClock().Now})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := a.Acquire(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expired context returned %v", err)
	}
	if inflight, queued := a.Occupancy(); inflight != 0 || queued != 0 {
		t.Fatalf("expired context left state: %d/%d", inflight, queued)
	}
}

// TestAdmissionReleaseIdempotent: double releases (defer + explicit)
// must not free a slot twice.
func TestAdmissionReleaseIdempotent(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Slots: 1, Now: newFakeClock().Now})
	release := mustAcquire(t, a, 0)
	release()
	release()
	r := mustAcquire(t, a, 0)
	defer r()
	if inflight, _ := a.Occupancy(); inflight != 1 {
		t.Fatalf("inflight = %d after double release + acquire, want 1", inflight)
	}
}

// TestAdmissionSaturationFairness drives heavy closed-loop load from
// three tenants through a tight controller and checks the long-run
// admit shares stay balanced — the unit-level counterpart of the soak
// test's fairness bound.
func TestAdmissionSaturationFairness(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Slots: 2, TenantSlots: 1, QueueDepth: 64})
	const tenants, perWorker, workers = 3, 60, 2
	counts := make([]int64, tenants)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for tn := 0; tn < tenants; tn++ {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(tn int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					release, _, err := a.Acquire(context.Background(), tn)
					if err != nil {
						t.Errorf("tenant %d: %v", tn, err)
						return
					}
					mu.Lock()
					counts[tn]++
					mu.Unlock()
					release()
				}
			}(tn)
		}
	}
	wg.Wait()
	for tn, n := range counts {
		if n != perWorker*workers {
			t.Fatalf("tenant %d admitted %d times, want %d", tn, n, perWorker*workers)
		}
	}
}

// TestAdmissionUncontendedAllocatesOnce: with nobody queued and a slot
// free, Acquire grants without a waiter or a queue slot, and the grant's
// release is one closure — the one allocation of an Acquire and its
// release, however many tenants have been seen and however many grants
// are out.
func TestAdmissionUncontendedAllocatesOnce(t *testing.T) {
	a := NewAdmission(AdmissionConfig{Slots: 4, TenantSlots: 2})
	held := mustAcquire(t, a, 3) // another tenant's grant stays out
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		release, wait, err := a.Acquire(ctx, 1)
		if err != nil || wait != 0 {
			t.Fatalf("uncontended Acquire: wait %v, err %v", wait, err)
		}
		release()
		release()
	})
	held()
	if allocs > 1 {
		t.Fatalf("%.1f allocations per uncontended Acquire and release, want at most 1", allocs)
	}
	if inflight, queued := a.Occupancy(); inflight != 0 || queued != 0 {
		t.Fatalf("after the releases: %d in flight, %d queued", inflight, queued)
	}
}
