package metrics

import (
	"sync/atomic"
	"time"
)

// AdmissionCounters tracks one tenant's traffic through the serving
// layer's admission controller. All fields are updated atomically, so
// one instance can be shared by every connection handler of a tenant;
// the zero value is ready to use.
type AdmissionCounters struct {
	// Admitted counts queries granted an execution slot (immediately or
	// after queueing).
	Admitted atomic.Int64
	// Rejected counts queries refused with ErrOverloaded because the
	// admission queue was full.
	Rejected atomic.Int64
	// Queued counts admitted queries that had to wait for a slot.
	Queued atomic.Int64
	// Expired counts queries whose context was canceled or whose
	// deadline passed — while waiting for a slot or mid-execution.
	Expired atomic.Int64
	// Completed / Failed count executed queries by outcome (Failed
	// excludes expirations, which Expired covers).
	Completed atomic.Int64
	Failed    atomic.Int64
	// QueueWaitNS accumulates time spent waiting for a slot, in
	// nanoseconds (includes waits that ended in expiry).
	QueueWaitNS atomic.Int64
}

// AddQueueWait accumulates one queue-wait measurement.
func (c *AdmissionCounters) AddQueueWait(d time.Duration) {
	if d > 0 {
		c.QueueWaitNS.Add(d.Nanoseconds())
	}
}

// AdmissionSnapshot is a point-in-time copy of AdmissionCounters,
// shaped for the STATS frame.
type AdmissionSnapshot struct {
	Admitted  int64         `json:"admitted"`
	Rejected  int64         `json:"rejected"`
	Queued    int64         `json:"queued"`
	Expired   int64         `json:"expired"`
	Completed int64         `json:"completed"`
	Failed    int64         `json:"failed"`
	QueueWait time.Duration `json:"queue_wait_ns"`
}

// Snapshot copies the counters. Individual loads are atomic; the
// snapshot as a whole is not a consistent cut under concurrent updates,
// which is fine for monitoring output.
func (c *AdmissionCounters) Snapshot() AdmissionSnapshot {
	// Outcomes are loaded before admissions: a query is admitted before it
	// completes or fails, so even a torn snapshot never shows more finished
	// work than admitted work.
	s := AdmissionSnapshot{Completed: c.Completed.Load(), Failed: c.Failed.Load()}
	s.Admitted = c.Admitted.Load()
	s.Rejected = c.Rejected.Load()
	s.Queued = c.Queued.Load()
	s.Expired = c.Expired.Load()
	s.QueueWait = time.Duration(c.QueueWaitNS.Load())
	return s
}

// Add folds another snapshot into s — the cluster-wide total of
// per-tenant snapshots.
func (s AdmissionSnapshot) Add(o AdmissionSnapshot) AdmissionSnapshot {
	return AdmissionSnapshot{
		Admitted:  s.Admitted + o.Admitted,
		Rejected:  s.Rejected + o.Rejected,
		Queued:    s.Queued + o.Queued,
		Expired:   s.Expired + o.Expired,
		Completed: s.Completed + o.Completed,
		Failed:    s.Failed + o.Failed,
		QueueWait: s.QueueWait + o.QueueWait,
	}
}
