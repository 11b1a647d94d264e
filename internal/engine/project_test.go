package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/tuple"
)

// lazyTable builds a relation whose store serves lazily decoded v2
// segments, as objstore.ReencodeDataset does.
func lazyTable(t *testing.T, rows []tuple.Row, perSeg int) (*catalog.TableMeta, map[segment.ObjectID]*segment.Segment) {
	t.Helper()
	sch := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt64},
		tuple.Column{Name: "s", Kind: tuple.KindString},
		tuple.Column{Name: "f", Kind: tuple.KindFloat64},
	)
	segs := segment.Split(0, "lazy", rows, perSeg, 1e9)
	store := make(map[segment.ObjectID]*segment.Segment)
	lazy := make([]*segment.Segment, len(segs))
	for i, sg := range segs {
		data, err := sg.EncodeFormat(sch, segment.FormatV2)
		if err != nil {
			t.Fatal(err)
		}
		lz, err := segment.DecodeLazy(sch, data)
		if err != nil {
			t.Fatal(err)
		}
		lazy[i] = lz
		store[lz.ID] = lz
	}
	cat := catalog.New(0)
	tm, err := cat.AddTable("lazy", sch, lazy)
	if err != nil {
		t.Fatal(err)
	}
	return tm, store
}

func lazyRows(n int) []tuple.Row {
	out := make([]tuple.Row, n)
	for i := range out {
		out[i] = tuple.Row{tuple.Int(int64(i)), tuple.Str(string(rune('a' + i%3))), tuple.Float(float64(i) / 4)}
	}
	return out
}

func TestSeqScanLazyProjectedBatches(t *testing.T) {
	tm, store := lazyTable(t, lazyRows(10), 4)
	scan := NewSeqScan(NewTestCtx(store), tm)
	scan.Project = []int{0} // only k
	rows, err := Collect(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows", len(rows))
	}
	if got := scan.Schema().ColumnNames(); len(got) != 1 || got[0] != "k" {
		t.Fatalf("scan schema %v, want [k]", got)
	}
	for i, r := range rows {
		// Unprojected columns do not exist above the scan.
		if len(r) != 1 || r[0].AsInt() != int64(i) {
			t.Fatalf("row %d = %v, want (%d)", i, r, i)
		}
	}
	b := scan.Bytes()
	if b.Fetched <= 0 || b.Decoded <= 0 || b.SkippedByProjection <= 0 {
		t.Fatalf("byte accounting %+v", b)
	}

	// The same scan without projection decodes more and skips nothing.
	full := NewSeqScan(NewTestCtx(store), tm)
	if _, err := Collect(full); err != nil {
		t.Fatal(err)
	}
	fb := full.Bytes()
	if fb.SkippedByProjection != 0 || fb.Decoded <= b.Decoded {
		t.Fatalf("full scan accounting %+v vs projected %+v", fb, b)
	}
	if fb.Fetched != b.Fetched {
		t.Fatalf("fetched bytes differ: %d vs %d", fb.Fetched, b.Fetched)
	}
}

func TestSeqScanEmptyProjectionCountsRows(t *testing.T) {
	tm, store := lazyTable(t, lazyRows(9), 4)
	scan := NewSeqScan(NewTestCtx(store), tm)
	scan.Project = []int{}
	rows, err := Collect(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9", len(rows))
	}
	b := scan.Bytes()
	if b.Decoded != 0 || b.SkippedByProjection <= 0 {
		t.Fatalf("empty projection accounting %+v", b)
	}
}

// TestSeqScanLegKernel: a scan with Project and Filter emits exactly the
// filter's survivors of exactly the projected columns — over materialized
// and lazily decoded segments, at full and one-row batches — and the filter, bound against the table schema, still reads its column
// by its table position when the projection moves it.
func TestSeqScanLegKernel(t *testing.T) {
	all := lazyRows(2500) // segments of 1100 rows span two batches
	lazyTM, lazyStore := lazyTable(t, all, 1100)
	memTM, memStore := buildMemTable(t, lazyTM.Schema, all, 1100)

	pred := expr.NewAnd(
		expr.ColGE(lazyTM.Schema, "f", tuple.Float(100)), // table column 2, leg column 1
		expr.ColEq(lazyTM.Schema, "s", tuple.Str("b")),
	)
	var want [][][]tuple.Row // [filtered][projection] rows
	projections := [][]int{nil, {1, 2}, {}}
	for _, filtered := range []bool{false, true} {
		var byProj [][]tuple.Row
		for _, proj := range projections {
			var rows []tuple.Row
			for _, r := range all {
				if filtered && !(r[2].F >= 100 && r[1].S == "b") {
					continue
				}
				out := r
				if proj != nil {
					out = make(tuple.Row, len(proj))
					for c, ci := range proj {
						out[c] = r[ci]
					}
				}
				rows = append(rows, out)
			}
			byProj = append(byProj, rows)
		}
		want = append(want, byProj)
	}
	for fi, filtered := range []bool{false, true} {
		for pi, proj := range projections {
			if filtered && proj != nil && len(proj) == 0 {
				continue // the filter's columns are not in an empty projection
			}
			for _, src := range []struct {
				name  string
				tm    *catalog.TableMeta
				store map[segment.ObjectID]*segment.Segment
			}{{"mem", memTM, memStore}, {"v2", lazyTM, lazyStore}} {
				for _, rowwise := range []bool{false, true} {
					scan := NewSeqScan(NewTestCtx(src.store), src.tm)
					scan.Project = proj
					if filtered {
						scan.Filter = pred
					}
					var got []tuple.Row
					var err error
					if rowwise {
						got, err = Collect(oneRow(scan))
					} else {
						got, err = Collect(scan)
					}
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s filtered=%v project=%v rowwise=%v", src.name, filtered, proj, rowwise)
					w := want[fi][pi]
					if len(w) == 0 || len(got) != len(w) {
						t.Fatalf("%s: %d rows, want %d (non-zero)", label, len(got), len(w))
					}
					if !reflect.DeepEqual(renderRows(got), renderRows(w)) {
						t.Fatalf("%s: rows differ from the filtered, projected input", label)
					}
					if len(got[0]) != len(w[0]) {
						t.Fatalf("%s: rows are %d wide, want %d", label, len(got[0]), len(w[0]))
					}
				}
			}
		}
	}
}

// TestSeqScanReopen: re-opening a scan over a lazy table (as a re-run or an
// inner-loop rescan would) starts over — same rows, same accounting, the
// decode buffer of the first drain reused by the second.
func TestSeqScanReopen(t *testing.T) {
	tm, store := lazyTable(t, lazyRows(24), 4)
	scan := NewSeqScan(NewTestCtx(store), tm)
	first, err := Collect(scan)
	if err != nil {
		t.Fatal(err)
	}
	firstBytes, firstDecodes := scan.Bytes(), scan.PipeStats().Decodes
	second, err := Collect(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 24 || !reflect.DeepEqual(first, second) {
		t.Fatalf("re-opened scan diverged: %d rows, then %d", len(first), len(second))
	}
	if scan.Bytes() != firstBytes || scan.PipeStats().Decodes != firstDecodes || firstDecodes != 6 {
		t.Fatalf("re-opened scan accounts %+v / %d decodes, first drain %+v / %d (want 6)",
			scan.Bytes(), scan.PipeStats().Decodes, firstBytes, firstDecodes)
	}
}

// TestSeqScanEarlyClose: a scan over a lazy table abandoned after one batch
// (the LIMIT shape) has fetched and decoded exactly the one segment it
// consumed, and can be drained in full afterwards.
func TestSeqScanEarlyClose(t *testing.T) {
	tm, store := lazyTable(t, lazyRows(40), 4)
	fetch := &countingFetcher{store: MapFetcher(store)}
	scan := NewSeqScan(&Ctx{Fetch: fetch}, tm)
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	if b, ok, err := scan.NextBatch(); err != nil || !ok || b.Len() != 4 {
		t.Fatalf("first batch: ok=%v err=%v", ok, err)
	}
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
	if fetch.n != 1 || scan.PipeStats().Decodes != 1 {
		t.Fatalf("after one batch: %d fetches, %d decodes; want 1, 1", fetch.n, scan.PipeStats().Decodes)
	}
	if rows, err := Collect(scan); err != nil || len(rows) != 40 {
		t.Fatalf("drain after early close: %d rows, err %v", len(rows), err)
	}
}

// buildMemTable registers rows as materialized (never encoded) segments.
func buildMemTable(t *testing.T, sch *tuple.Schema, rows []tuple.Row, perSeg int) (*catalog.TableMeta, map[segment.ObjectID]*segment.Segment) {
	t.Helper()
	segs := segment.Split(0, "mem", rows, perSeg, 1e9)
	store := make(map[segment.ObjectID]*segment.Segment)
	for _, sg := range segs {
		store[sg.ID] = sg
	}
	return catalog.New(0).MustAddTable("mem", sch, segs), store
}

// TestStreamingOutputSizedByInput: streaming operators size their output
// batch by the input they see, not by DefaultBatchSize — a 25-row result
// does not allocate 1024-row buffers — and replace the buffer, inside the
// next call as the batch-validity contract allows, when a larger input
// follows.
func TestStreamingOutputSizedByInput(t *testing.T) {
	sch := tuple.NewSchema(tuple.Column{Name: "k", Kind: tuple.KindInt64}, tuple.Column{Name: "v", Kind: tuple.KindString})
	small, large := tuple.FromRows(sch, kvRows(25)), tuple.FromRows(sch, kvRows(800)[100:])
	keepAll := expr.ColGE(sch, "k", tuple.Int(0))
	proj := []ProjectCol{{Name: "k", Kind: tuple.KindInt64, E: expr.Bind(sch, "k")}}
	plans := map[string]func(in Iterator) Iterator{
		"filter":   func(in Iterator) Iterator { return NewFilter(in, keepAll) },
		"project":  func(in Iterator) Iterator { return NewProject(in, proj) },
		"distinct": func(in Iterator) Iterator { return NewDistinct(in) },
		"join": func(in Iterator) Iterator {
			return JoinOn(NewValues(sch, kvRows(800)), in, [][2]string{{"k", "k"}})
		},
	}
	for name, plan := range plans {
		it := plan(NewBatchValues(sch, []*tuple.Batch{small, large}))
		if err := it.Open(); err != nil {
			t.Fatal(err)
		}
		first, ok, err := it.NextBatch()
		if err != nil || !ok {
			t.Fatalf("%s: first batch: ok=%v err=%v", name, ok, err)
		}
		if first.Len() != 25 || first.Cap() != 25 {
			t.Fatalf("%s: first batch len %d cap %d, want 25 25", name, first.Len(), first.Cap())
		}
		if got := first.Col(0).I; got[0] != 0 || got[24] != 24 {
			t.Fatalf("%s: first batch holds keys %v..%v, want 0..24", name, got[0], got[24])
		}
		second, ok, err := it.NextBatch()
		if err != nil || !ok {
			t.Fatalf("%s: second batch: ok=%v err=%v", name, ok, err)
		}
		if second.Len() != 700 || second.Cap() != 700 {
			t.Fatalf("%s: second batch len %d cap %d, want 700 700", name, second.Len(), second.Cap())
		}
		if got := second.Col(0).I; got[0] != 100 || got[699] != 799 {
			t.Fatalf("%s: second batch holds keys %v..%v, want 100..799", name, got[0], got[699])
		}
		it.Close()
	}
}
