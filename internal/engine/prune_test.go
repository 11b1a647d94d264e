package engine

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// countingFetcher counts segment fetches on top of a map store.
type countingFetcher struct {
	store MapFetcher
	n     int
}

func (f *countingFetcher) Fetch(id segment.ObjectID) (*segment.Segment, error) {
	f.n++
	return f.store.Fetch(id)
}

// pruneFixture builds a 5-segment relation with keys 0..49 in segment
// order (clustered), so key predicates map cleanly onto segments.
func pruneFixture(t *testing.T) (*catalog.TableMeta, map[segment.ObjectID]*segment.Segment) {
	t.Helper()
	sch := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt64},
		tuple.Column{Name: "tag", Kind: tuple.KindString},
	)
	rows := make([]tuple.Row, 50)
	for i := range rows {
		rows[i] = tuple.Row{tuple.Int(int64(i)), tuple.Str("x")}
	}
	segs := segment.Split(0, "t", rows, 10, 1e9)
	store := make(map[segment.ObjectID]*segment.Segment)
	for _, sg := range segs {
		store[sg.ID] = sg
	}
	cat := catalog.New(0)
	return cat.MustAddTable("t", sch, segs), store
}

// TestSeqScanPruning: a pruned scan must fetch only the surviving segments
// while the filtered row stream stays byte-identical, at full and at
// one-row batches.
func TestSeqScanPruning(t *testing.T) {
	tm, store := pruneFixture(t)
	pred := expr.ColBetween(tm.Schema, "k", tuple.Int(23), tuple.Int(31))
	pruner, ok := stats.ForPredicate(pred, tm.Schema, tm.Stats)
	if !ok {
		t.Fatal("predicate not prunable")
	}

	run := func(prune bool, batch bool) ([]tuple.Row, int) {
		fetch := &countingFetcher{store: MapFetcher(store)}
		scan := NewSeqScan(&Ctx{Fetch: fetch}, tm)
		if prune {
			scan.Pruner = pruner
		}
		it := NewFilter(scan, pred)
		var rows []tuple.Row
		var err error
		if batch {
			rows, err = Collect(it)
		} else {
			rows, err = Collect(oneRow(it))
		}
		if err != nil {
			t.Fatal(err)
		}
		return rows, fetch.n
	}

	for _, batch := range []bool{false, true} {
		plain, plainFetches := run(false, batch)
		pruned, prunedFetches := run(true, batch)
		if !reflect.DeepEqual(plain, pruned) {
			t.Fatalf("batch=%v: pruned rows diverge:\n%v\n%v", batch, plain, pruned)
		}
		if plainFetches != 5 {
			t.Fatalf("batch=%v: unpruned scan fetched %d segments", batch, plainFetches)
		}
		// Keys 23..31 span exactly segments 2 and 3.
		if prunedFetches != 2 {
			t.Fatalf("batch=%v: pruned scan fetched %d segments, want 2", batch, prunedFetches)
		}
	}
}

// TestSeqScanPruneAll: a predicate outside every zone map fetches
// nothing and returns the empty relation.
func TestSeqScanPruneAll(t *testing.T) {
	tm, store := pruneFixture(t)
	pred := expr.ColGE(tm.Schema, "k", tuple.Int(1000))
	pruner, ok := stats.ForPredicate(pred, tm.Schema, tm.Stats)
	if !ok {
		t.Fatal("predicate not prunable")
	}
	fetch := &countingFetcher{store: MapFetcher(store)}
	ctx := &Ctx{Fetch: fetch}
	scan := NewSeqScan(ctx, tm)
	scan.Pruner = pruner
	rows, err := Collect(NewFilter(scan, pred))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 || fetch.n != 0 {
		t.Fatalf("rows %d, fetches %d; want 0, 0", len(rows), fetch.n)
	}
	if scan.SegmentsSkipped() != 5 {
		t.Fatalf("SegmentsSkipped = %d, want 5", scan.SegmentsSkipped())
	}
}

// TestExplainShowsPruning: the plan display carries the pushed-down
// predicate and the skip counts; unpruned scans render exactly as
// before.
func TestExplainShowsPruning(t *testing.T) {
	tm, store := pruneFixture(t)
	ctx := NewTestCtx(store)
	plain := Explain(NewSeqScan(ctx, tm))
	if strings.Contains(plain, "prune") {
		t.Fatalf("unpruned scan mentions pruning: %s", plain)
	}
	pred := expr.ColBetween(tm.Schema, "k", tuple.Int(0), tuple.Int(9))
	pruner, _ := stats.ForPredicate(pred, tm.Schema, tm.Stats)
	scan := NewSeqScan(ctx, tm)
	scan.Pruner = pruner
	got := Explain(scan)
	if !strings.Contains(got, "prune 4/5 segments") {
		t.Fatalf("explain missing prune detail: %s", got)
	}
	if !strings.Contains(got, "k BETWEEN 0 AND 9") {
		t.Fatalf("explain missing predicate: %s", got)
	}
}
