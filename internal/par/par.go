// Package par runs independent work items on every core; GOMAXPROCS is its one setting.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the number of workers For(n, …) runs on: GOMAXPROCS, at
// most n, at least 1. A caller sizes per-worker scratch with it.
func Workers(n int) int { return max(1, min(n, runtime.GOMAXPROCS(0))) }

// For calls fn(w, i) once for every i in [0, n) on Workers(n) workers
// numbered w, the calling goroutine being worker 0, and returns once all
// have; no goroutine starts for one worker. Items start in index order and
// none after a failure, so every item below the lowest failing one has run
// and its error, the one a serial loop stops at, is returned.
func For(n int, fn func(w, i int) error) error {
	l := &loop{fn: fn, errs: make([]error, n)}
	workers := Workers(n)
	l.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go l.work(w)
	}
	l.work(0)
	l.wg.Wait()
	for _, err := range l.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// loop is one For call's state; a worker writes only its own items' errs.
type loop struct {
	fn     func(w, i int) error
	errs   []error
	next   atomic.Int64 // the next item to hand out
	failed atomic.Bool
	wg     sync.WaitGroup
}

func (l *loop) work(w int) {
	defer l.wg.Done()
	for !l.failed.Load() {
		i := int(l.next.Add(1) - 1)
		if i >= len(l.errs) {
			return
		}
		if l.errs[i] = l.fn(w, i); l.errs[i] != nil {
			l.failed.Store(true)
		}
	}
}
