package engine

import (
	"sync"

	"repro/internal/tuple"
)

// This file is the morsel-driven parallel execution layer: a plan-walking
// Parallelize entry point plus the worker-pool primitive HashAgg's drain
// builds on (HashJoin splits each probe batch by row range instead, against
// a build side it drains serially). The design follows HyPer-style
// morsel-driven parallelism scaled down to this engine's batch protocol:
// a batch (DefaultBatchSize rows) is the morsel, the producing goroutine
// drains the child iterator serially — keeping Fetcher and Clock calls on
// the caller's goroutine, which the vtime simulation requires — and a
// pool of workers consumes private copies of the batches. DOP=1 runs
// every operator on the caller's goroutine; any DOP produces the same
// result multiset (order may differ across DOPs only where no Sort fixes
// it).

// parallelizable is implemented by operators that can spread their work
// across a worker pool. Parallelize uses it to thread the DOP through a
// plan without every constructor growing an argument.
type parallelizable interface {
	setParallelism(dop int)
}

// Parallelize sets the degree of parallelism on every operator of the
// plan rooted at it that supports parallel execution (HashJoin, HashAgg)
// and returns the root for chaining. dop <= 1 selects the serial path —
// the zero value is always safe.
func Parallelize(it Iterator, dop int) Iterator {
	walkPlan(it, func(n Iterator) {
		if p, ok := n.(parallelizable); ok {
			p.setParallelism(dop)
		}
	})
	return it
}

// SeqScans returns every SeqScan leaf of the plan rooted at it. Callers use
// it to read per-scan counters — e.g. SegmentsSkipped — after a plan has
// been drained.
func SeqScans(it Iterator) []*SeqScan {
	var out []*SeqScan
	walkPlan(it, func(n Iterator) {
		if s, ok := n.(*SeqScan); ok {
			out = append(out, s)
		}
	})
	return out
}

// normDOP clamps a configured parallelism to a usable worker count.
func normDOP(dop int) int {
	if dop < 1 {
		return 1
	}
	return dop
}

// runMorsels drains src on the calling goroutine and fans its batches out
// to dop workers. Each worker receives a private copy of every batch (the
// morsel), so source buffer reuse never races; morsel buffers are
// recycled through a free list once a worker is done with one. The first
// error — from the source or any worker — stops the run and is returned.
// src must already be Open; runMorsels does not Close it.
//
// worker is called from dop goroutines, with w in [0, dop) identifying
// the worker, so per-worker state indexed by w needs no locking. The
// morsel is only valid for the duration of the call.
func runMorsels(src Iterator, dop int, worker func(w int, morsel *tuple.Batch) error) error {
	morsels := make(chan *tuple.Batch, dop)
	free := make(chan *tuple.Batch, 2*dop+1)
	stop := make(chan struct{})
	var once sync.Once
	var workerErr error
	var wg sync.WaitGroup
	// Workers spawn lazily, one per morsel dispatched, up to dop: a
	// source with little data gets one worker and none of the fan-out
	// overhead, a big one ramps to the full pool.
	spawned := 0
	spawn := func() {
		w := spawned
		spawned++
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := range morsels {
				select {
				case <-stop:
					// A worker failed: drop remaining morsels so the
					// producer unblocks, but do no more work.
					continue
				default:
				}
				if err := worker(w, m); err != nil {
					once.Do(func() {
						workerErr = err
						close(stop)
					})
					continue
				}
				select {
				case free <- m:
				default:
				}
			}
		}()
	}
	var srcErr error
	var m *tuple.Batch
producer:
	for {
		select {
		case <-stop:
			break producer
		default:
		}
		b, ok, err := src.NextBatch()
		if err != nil {
			srcErr = err
			break
		}
		if !ok {
			break
		}
		if m == nil {
			select {
			case m = <-free:
				m.Reset()
			default:
				m = tuple.NewBatch(src.Schema(), max(b.Len(), DefaultBatchSize))
			}
		}
		// Coalesce small source batches (e.g. tiny segments) into one
		// full morsel so dispatch overhead amortizes over real work.
		m.AppendBatch(b)
		if m.Len() >= DefaultBatchSize {
			if spawned < dop {
				spawn()
			}
			morsels <- m
			m = nil
		}
	}
	if m != nil && m.Len() > 0 {
		if spawned < dop {
			spawn()
		}
		morsels <- m
	}
	close(morsels)
	wg.Wait()
	if workerErr != nil {
		return workerErr
	}
	return srcErr
}

// splitRange cuts [0, n) into at most parts contiguous chunks of near-
// equal size and calls fn(part, start, end) for each non-empty chunk.
func splitRange(n, parts int, fn func(part, start, end int)) {
	if parts > n {
		parts = n
	}
	if parts <= 0 {
		return
	}
	size := (n + parts - 1) / parts
	part := 0
	for start := 0; start < n; start += size {
		end := min(start+size, n)
		fn(part, start, end)
		part++
	}
}
