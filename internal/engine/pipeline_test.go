package engine

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/tuple"
)

// fakePruner skips the flagged segment indices.
type fakePruner []bool

func (p fakePruner) CanSkip(seg int) bool { return seg < len(p) && p[seg] }
func (p fakePruner) Predicate() string    { return "fake" }

// TestSeqScanPipelinedIdentical is the scan-level differential: the
// pipelined scan (decode pool + read-ahead) must produce byte-identical
// rows to the serial scan, at full and one-row batches, with and
// without pruning and projection. Run under -race this also exercises
// the pool's buffer ownership.
func TestSeqScanPipelinedIdentical(t *testing.T) {
	tm, store := lazyTable(t, lazyRows(40), 4)
	pool := NewDecodePool(4)
	defer pool.Close()

	run := func(pipe *Pipeline, project []int, prune bool, batch bool) ([]tuple.Row, ScanBytes, PipeStats) {
		ctx := NewTestCtx(store)
		ctx.Pipe = pipe
		scan := NewSeqScan(ctx, tm)
		scan.Project = project
		if prune {
			scan.Pruner = fakePruner{false, true, false, true} // skip segments 1 and 3
		}
		var rows []tuple.Row
		var err error
		if batch {
			rows, err = Collect(scan)
		} else {
			rows, err = Collect(oneRow(scan))
		}
		if err != nil {
			t.Fatal(err)
		}
		return rows, scan.Bytes(), scan.PipeStats()
	}

	for _, project := range [][]int{nil, {0}} {
		for _, prune := range []bool{false, true} {
			for _, batch := range []bool{false, true} {
				want, wantBytes, basePS := run(nil, project, prune, batch)
				got, gotBytes, ps := run(&Pipeline{Pool: pool, Depth: 3}, project, prune, batch)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("project=%v prune=%v batch=%v: pipelined rows diverge", project, prune, batch)
				}
				// Byte accounting is decode-volume identical (DecodeTime is
				// real time and may differ).
				wantBytes.DecodeTime, gotBytes.DecodeTime = 0, 0
				if wantBytes != gotBytes {
					t.Fatalf("project=%v prune=%v batch=%v: bytes %+v vs %+v", project, prune, batch, wantBytes, gotBytes)
				}
				if ps.Decodes != basePS.Decodes || ps.Decodes == 0 {
					t.Fatalf("pipelined decodes = %d, serial %d", ps.Decodes, basePS.Decodes)
				}
				// Serial baseline: decode fully on the critical path.
				if basePS.DecodeStall != basePS.DecodeBusy {
					t.Fatalf("serial stall %v != busy %v", basePS.DecodeStall, basePS.DecodeBusy)
				}
			}
		}
	}
}

// TestSeqScanPipelinedCostCharges pins the virtual-time contract: the
// pipelined scan charges exactly one ProcessPerObject per consumed
// segment, like the serial scan.
func TestSeqScanPipelinedCostCharges(t *testing.T) {
	tm, store := lazyTable(t, lazyRows(20), 4)
	pool := NewDecodePool(2)
	defer pool.Close()
	clock := &countingClock{}
	ctx := &Ctx{Clock: clock, Fetch: MapFetcher(store), Costs: DefaultCosts(),
		Pipe: &Pipeline{Pool: pool}}
	scan := NewSeqScan(ctx, tm)
	if _, err := Collect(scan); err != nil {
		t.Fatal(err)
	}
	wantSegs := (20 + 3) / 4
	if want := DefaultCosts().ProcessPerObject * 5; clock.total != want {
		t.Fatalf("charged %v over %d segments, want %v", clock.total, wantSegs, want)
	}
}

// TestSeqScanPipelinedReopen: re-opening a pipelined scan (as a re-run
// or an inner-loop rescan would) must drain the old read-ahead window
// and produce the same rows again.
func TestSeqScanPipelinedReopen(t *testing.T) {
	tm, store := lazyTable(t, lazyRows(24), 4)
	pool := NewDecodePool(2)
	defer pool.Close()
	ctx := NewTestCtx(store)
	ctx.Pipe = &Pipeline{Pool: pool, Depth: 4}
	scan := NewSeqScan(ctx, tm)
	first, err := Collect(scan)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Collect(scan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("re-opened pipelined scan diverged")
	}
}

// TestSeqScanPipelinedEarlyClose: abandoning a pipelined scan mid-drain
// (the LIMIT shape) must not leak in-flight decode jobs or corrupt the
// pool for later scans.
func TestSeqScanPipelinedEarlyClose(t *testing.T) {
	tm, store := lazyTable(t, lazyRows(40), 4)
	pool := NewDecodePool(2)
	ctx := NewTestCtx(store)
	ctx.Pipe = &Pipeline{Pool: pool, Depth: 4}
	scan := NewSeqScan(ctx, tm)
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := scan.NextBatch(); err != nil || !ok {
		t.Fatalf("first batch: ok=%v err=%v", ok, err)
	}
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
	// A clean Close must leave the pool fully drainable.
	pool.Close()
}

// TestDecodeAheadOverlapsWithBlockedConsumer pins the overlap mechanism
// the wall-clock counters measure: while the consumer is blocked on one
// job, the remaining workers drain every job queued behind it, so those
// tickets are Ready before the consumer ever asks. The first job cannot
// finish until the others have, which makes the schedule deterministic
// on any host — including a single-core one, where the workers run
// precisely because the consumer is parked.
func TestDecodeAheadOverlapsWithBlockedConsumer(t *testing.T) {
	pool := NewDecodePool(2)
	defer pool.Close()

	const ahead = 5
	var laterDone sync.WaitGroup
	laterDone.Add(ahead)
	head := pool.Submit(laterDone.Wait) // holds one worker until the rest drain
	later := make([]*DecodeTicket, ahead)
	for i := range later {
		later[i] = pool.Submit(laterDone.Done)
	}

	// Consume in submission order, counting Ready-before-Wait exactly as
	// the scan and MJoin consumers do.
	var st PipeStats
	for _, tk := range append([]*DecodeTicket{head}, later...) {
		if tk.Ready() {
			st.DecodesOverlapped++
		}
		st.DecodeStall += tk.Wait()
		st.DecodeBusy += tk.Busy
		st.Decodes++
	}
	if st.Decodes != ahead+1 {
		t.Fatalf("consumed %d decodes, want %d", st.Decodes, ahead+1)
	}
	if st.DecodesOverlapped < ahead {
		t.Fatalf("only %d/%d queued decodes overlapped with the blocked consumer", st.DecodesOverlapped, ahead)
	}
}
