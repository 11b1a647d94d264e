package vtime

import "time"

// Clock abstracts a time source that can be read (Now) and advanced by
// blocking (Sleep). Two implementations matter here:
//
//   - *Proc: virtual time. Sleep suspends the simulated process and the
//     discrete-event scheduler jumps the clock — the timing arithmetic of
//     every experiment.
//   - *Wall: real (hardware) time. Now reads the host monotonic clock; it
//     measures what a run cost the host (RunResult.Wall), which is
//     invisible to virtual time: decode, probing and the simulator itself
//     carry no virtual charge of their own.
//
// Code written against Clock runs unchanged on either substrate.
type Clock interface {
	// Now returns the elapsed time on this clock since its origin (virtual
	// time zero, or the Wall clock's creation).
	Now() time.Duration
	// Sleep advances the clock by d, blocking the caller.
	Sleep(d time.Duration)
}

// Wall is a Clock over real (hardware) time. Its origin is the moment
// NewWall was called. The zero Scale makes Sleep a no-op — the common
// configuration for measurement: simulations charge virtual time
// elsewhere and only read Now here; a positive Scale makes Sleep
// actually block for d*Scale of real time, which turns a simulated
// schedule into a (scaled) real-time replay.
type Wall struct {
	start time.Time
	// Scale multiplies Sleep durations: 0 disables sleeping (measurement
	// mode), 1 sleeps in real time, 0.001 replays at 1000x speed.
	Scale float64
}

// NewWall returns a wall clock whose origin is now, in measurement mode
// (Scale 0: Sleep is a no-op).
func NewWall() *Wall { return &Wall{start: time.Now()} }

// Now implements Clock: real time elapsed since NewWall.
func (w *Wall) Now() time.Duration { return time.Since(w.start) }

// Sleep implements Clock: blocks for d*Scale of real time (no-op at the
// default Scale 0).
func (w *Wall) Sleep(d time.Duration) {
	if w.Scale > 0 && d > 0 {
		time.Sleep(time.Duration(float64(d) * w.Scale))
	}
}

// Clock conformance: both time substrates satisfy the one interface.
var (
	_ Clock = (*Proc)(nil)
	_ Clock = (*Wall)(nil)
)
