package mjoin

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/segment"
	"repro/internal/trace"
	"repro/internal/tuple"
)

// This file implements the pipelined arrival path: when Config.DecodePool
// is set and the source supports non-blocking receipt, arrivals that the
// storage layer has already delivered are picked up early and handed to
// background decode workers, so decoding one object overlaps probing the
// previous one in wall-clock time.
//
// Two invariants keep the pipelined path byte-identical to the serial
// one, in both results and virtual timing:
//
//  1. Virtual structure is preserved exactly. Lookahead uses only
//     TryNextArrival, which never blocks and costs no virtual time; the
//     manager blocks on NextArrival only when it would have blocked
//     serially (nothing decoded or decoding in hand), and the per-object
//     processing charge is paid when the arrival is consumed, in strict
//     delivery order — the same interleaving of waits and charges the
//     serial loop produces.
//  2. Speculation is invisible. An arrival decoded ahead of time may turn
//     out to be unneeded by the time it is processed (an earlier arrival
//     pruned its subplans). Its decode output, byte accounting, and even
//     its decode error are discarded wholesale — the serial path would
//     never have decoded it.

// TryArrivalSource is a Source that can additionally report an arrival
// that is already available without blocking. The client proxy
// implements it over its buffered delivery channel; in-memory test
// sources implement it trivially.
type TryArrivalSource interface {
	Source
	// TryNextArrival returns (seg, true, nil) if a requested object has
	// already been delivered, (nil, false, nil) if receiving would block,
	// and a non-nil error if the storage layer failed the request.
	TryNextArrival() (*segment.Segment, bool, error)
}

// decodedArrival is one slot of the receive window: a delivered segment
// together with its in-flight (or completed) speculative decode.
type decodedArrival struct {
	seg *segment.Segment
	// Outputs of the decode job; owned by the worker until t is waited on.
	batch *tuple.Batch
	cd    *segment.ColumnData
	bytes engine.ScanBytes
	err   error
	// t is the decode ticket; nil when the decode was skipped (no pending
	// subplan needed the object at submit time).
	t *engine.DecodeTicket
	// srcErr is a storage-layer failure; the slot carries no segment.
	srcErr error
}

// receiveArrivals consumes exactly n arrivals from the source, in
// delivery order, dispatching to the pipelined path when configured.
func (m *manager) receiveArrivals(n int) error {
	if m.cfg.DecodePool != nil {
		if try, ok := m.src.(TryArrivalSource); ok {
			return m.receiveArrivalsPipelined(n, try)
		}
	}
	for i := 0; i < n; i++ {
		start := time.Now()
		seg, err := m.src.NextArrival()
		m.stats.Pipe.FetchStall += time.Since(start)
		if err != nil {
			return fmt.Errorf("mjoin: arrival: %w", err)
		}
		if err := m.processArrival(&decodedArrival{seg: seg}); err != nil {
			return err
		}
	}
	return nil
}

// receiveArrivalsPipelined consumes n arrivals with a bounded
// decode-ahead window: already-delivered arrivals are drained without
// blocking and submitted to the decode pool; consumption stays in strict
// delivery order.
func (m *manager) receiveArrivalsPipelined(n int, try TryArrivalSource) error {
	depth := m.cfg.DecodeAhead
	if depth <= 0 {
		depth = 2
	}
	received := 0
	var window []*decodedArrival
	// fill drains already-delivered arrivals (zero virtual cost) until
	// the window holds the arrival being processed plus depth lookahead.
	fill := func() {
		for received < n && len(window) <= depth {
			seg, ok, err := try.TryNextArrival()
			if err != nil {
				received++
				window = append(window, &decodedArrival{srcErr: err})
				return
			}
			if !ok {
				return
			}
			received++
			window = append(window, m.submitArrival(seg))
		}
	}
	for processed := 0; processed < n; processed++ {
		fill()
		if len(window) == 0 {
			// Nothing in hand: block exactly where the serial loop would.
			start := time.Now()
			seg, err := m.src.NextArrival()
			m.stats.Pipe.FetchStall += time.Since(start)
			received++
			if err != nil {
				window = append(window, &decodedArrival{srcErr: err})
			} else {
				window = append(window, m.submitArrival(seg))
				fill() // the virtual wait may have delivered more
			}
		}
		da := window[0]
		copy(window, window[1:])
		window = window[:len(window)-1]
		if err := m.processArrival(da); err != nil {
			m.drainWindow(window)
			return err
		}
	}
	return nil
}

// submitArrival starts the speculative decode of one delivered segment.
// The decode is skipped (t == nil) when no pending subplan needs the
// object — pendingCount only ever decreases, so the arrival is already
// guaranteed to be discarded at process time.
func (m *manager) submitArrival(seg *segment.Segment) *decodedArrival {
	da := &decodedArrival{seg: seg}
	ref, known := m.objIndex[seg.ID]
	if !known || m.pendingCount[seg.ID] == 0 {
		return da // processArrival panics (unknown) or discards (unneeded)
	}
	reuse := m.popCD()
	rel := ref.rel
	var name string
	if m.cfg.Trace.Enabled() {
		name = seg.ID.String()
	}
	da.t = m.cfg.DecodePool.Submit(func() {
		t0 := time.Now()
		da.batch, da.cd, da.bytes, da.err = m.decodeArrival(rel, seg, reuse)
		// Recording from the pool worker is safe: the trace is
		// mutex-guarded, and the span carries wall time only.
		if m.cfg.Trace.Enabled() {
			m.cfg.Trace.Emit(trace.CatDecode, name, t0)
		}
	})
	return da
}

// processArrival folds one delivered object, in delivery order, into the
// cache and runs every subplan it makes runnable. The serial receive path
// hands it a bare arrival, decoded here, inline; the pipelined path a
// window slot whose decode a worker has done or is doing. Everything else —
// what is counted, charged, discarded and when — is the same. It fails on
// a corrupt arrival (lazy-store block decode), mirroring the vanilla scan
// path.
func (m *manager) processArrival(da *decodedArrival) error {
	if da.srcErr != nil {
		return fmt.Errorf("mjoin: arrival: %w", da.srcErr)
	}
	m.stats.Arrivals++
	id := da.seg.ID
	ref, known := m.objIndex[id]
	if !known {
		panic(fmt.Sprintf("mjoin: arrival of object %v not in query %s", id, m.q.ID))
	}
	if m.pendingCount[id] == 0 {
		// Raced with pruning/completion: discard the speculative decode
		// entirely — output, byte accounting, and error alike. The serial
		// path returns before decoding here.
		if da.t != nil {
			da.t.Wait()
			m.recycleCD(da.cd)
		}
		return nil
	}
	m.cfg.Clock.Sleep(m.cfg.Costs.ProcessPerObject)
	if da.t != nil {
		if da.t.Ready() {
			m.stats.Pipe.DecodesOverlapped++
		}
		m.stats.Pipe.DecodeStall += da.t.Wait()
		m.stats.Pipe.DecodeBusy += da.t.Busy
		m.stats.Pipe.Decodes++
	} else {
		// The serial path: inline decode is both busy time and critical-path
		// stall — the pipeline-off baseline of the wall-clock accounting.
		start := time.Now()
		da.batch, da.cd, da.bytes, da.err = m.decodeArrival(ref.rel, da.seg, m.popCD())
		d := time.Since(start)
		m.stats.Pipe.DecodeBusy += d
		m.stats.Pipe.DecodeStall += d
		m.stats.Pipe.Decodes++
		if m.cfg.Trace.Enabled() {
			m.cfg.Trace.Emit(trace.CatDecode, id.String(), start)
		}
	}
	if da.err != nil {
		return da.err
	}
	m.addArrivalBytes(da.bytes)
	m.recycleCD(da.cd) // the batch copied what it keeps out of it
	m.admitArrival(id, ref.rel, da.batch)
	return nil
}

// popCD takes a decode buffer off the free list, nil when it is empty.
func (m *manager) popCD() *segment.ColumnData {
	k := len(m.freeCD)
	if k == 0 {
		return nil
	}
	cd := m.freeCD[k-1]
	m.freeCD = m.freeCD[:k-1]
	return cd
}

// recycleCD returns a decode buffer to the free list.
func (m *manager) recycleCD(cd *segment.ColumnData) {
	if cd != nil {
		m.freeCD = append(m.freeCD, cd)
	}
}

// drainWindow waits out the in-flight decodes of an abandoned window
// (error abort), so no worker is still writing manager-reachable
// buffers after Run returns.
func (m *manager) drainWindow(window []*decodedArrival) {
	for _, da := range window {
		if da.t != nil {
			da.t.Wait()
			m.recycleCD(da.cd)
		}
	}
}
