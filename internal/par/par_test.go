package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs f at GOMAXPROCS procs and restores the setting.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// settle fails t unless the goroutine count falls back to baseline.
func settle(t *testing.T, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestForRunsEveryItemOnce: every index runs exactly once, on a worker
// numbered below Workers(n), and one worker's calls never overlap.
func TestForRunsEveryItemOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 5} {
		for _, n := range []int{0, 1, 2, 3, 100} {
			withProcs(procs, func() {
				workers := Workers(n)
				ran := make([]atomic.Int32, n)
				busy := make([]atomic.Bool, workers)
				err := For(n, func(w, i int) error {
					if w < 0 || w >= workers {
						return fmt.Errorf("item %d on worker %d of %d", i, w, workers)
					}
					if busy[w].Swap(true) {
						return fmt.Errorf("worker %d runs two items at once", w)
					}
					ran[i].Add(1)
					runtime.Gosched()
					busy[w].Store(false)
					return nil
				})
				if err != nil {
					t.Fatalf("GOMAXPROCS %d, n %d: %v", procs, n, err)
				}
				for i := range ran {
					if c := ran[i].Load(); c != 1 {
						t.Fatalf("GOMAXPROCS %d, n %d: item %d ran %d times", procs, n, i, c)
					}
				}
			})
		}
	}
}

// TestForReturnsLowestFailingError: whatever order the workers reach the
// failing items in, For returns the error of the lowest one, every item
// below it has run, and no worker outlives the call.
func TestForReturnsLowestFailingError(t *testing.T) {
	const n = 200
	failing := map[int]bool{150: true, 37: true, 90: true, 38: true}
	for _, procs := range []int{1, 2, 5} {
		withProcs(procs, func() {
			baseline := runtime.NumGoroutine()
			for round := 0; round < 20; round++ {
				var ran [n]atomic.Bool
				err := For(n, func(_, i int) error {
					ran[i].Store(true)
					if i == 37 { // fail last, after other workers failed higher items
						time.Sleep(2 * time.Millisecond)
					}
					if failing[i] {
						return fmt.Errorf("item %d", i)
					}
					return nil
				})
				if err == nil || err.Error() != "item 37" {
					t.Fatalf("GOMAXPROCS %d: error %v, want item 37", procs, err)
				}
				for i := 0; i < 37; i++ {
					if !ran[i].Load() {
						t.Fatalf("GOMAXPROCS %d: item %d below the failure did not run", procs, i)
					}
				}
			}
			settle(t, baseline)
		})
	}
}

// TestForStartsNoGoroutineForOneWorker: with one item or GOMAXPROCS 1,
// For is the serial loop on the calling goroutine.
func TestForStartsNoGoroutineForOneWorker(t *testing.T) {
	for _, c := range []struct{ procs, n int }{{1, 100}, {2, 1}} {
		withProcs(c.procs, func() {
			baseline := runtime.NumGoroutine()
			stop := errors.New("stop")
			err := For(c.n, func(_, i int) error {
				if g := runtime.NumGoroutine(); g != baseline {
					return fmt.Errorf("%d goroutines inside item %d, %d outside", g, i, baseline)
				}
				if i == c.n-1 {
					return stop
				}
				return nil
			})
			if err != stop {
				t.Fatalf("GOMAXPROCS %d, n %d: %v", c.procs, c.n, err)
			}
		})
	}
}
