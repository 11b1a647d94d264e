package engine

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/tuple"
)

func benchRows(n int) ([]tuple.Row, *tuple.Schema) {
	sch := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt64},
		tuple.Column{Name: "v", Kind: tuple.KindString},
	)
	rows := make([]tuple.Row, n)
	for i := range rows {
		rows[i] = tuple.Row{tuple.Int(int64(i % 1000)), tuple.Str(fmt.Sprintf("val%d", i))}
	}
	return rows, sch
}

func BenchmarkHashJoin10k(b *testing.B) {
	rows, sch := benchRows(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		join := JoinOn(NewValues(sch, rows), NewValues(sch, rows), [][2]string{{"k", "k"}})
		if drainBatchwise(b, join) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFilterScan(b *testing.B) {
	rows, sch := benchRows(10000)
	pred := expr.ColGE(sch, "k", tuple.Int(500))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := NewFilter(NewValues(sch, rows), pred)
		out, err := Collect(f)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkHashAggGrouped(b *testing.B) {
	rows, sch := benchRows(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		agg := NewHashAgg(NewValues(sch, rows),
			[]GroupCol{{Name: "k", Kind: tuple.KindInt64, E: expr.Bind(sch, "k")}},
			[]AggSpec{{Kind: AggCount, Name: "n"}})
		out, err := Collect(agg)
		if err != nil || len(out) != 1000 {
			b.Fatalf("groups %d err %v", len(out), err)
		}
	}
}

func BenchmarkSort10k(b *testing.B) {
	rows, sch := benchRows(10000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSort(NewValues(sch, rows), []SortKey{{E: expr.Bind(sch, "v")}})
		out, err := Collect(s)
		if err != nil || len(out) != 10000 {
			b.Fatal(err)
		}
	}
}

// drainBatchwise drains a plan without materializing rows and returns
// its row count.
func drainBatchwise(b *testing.B, it Iterator) int {
	b.Helper()
	if err := it.Open(); err != nil {
		b.Fatal(err)
	}
	defer it.Close()
	n := 0
	for {
		batch, ok, err := it.NextBatch()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			return n
		}
		n += batch.Len()
	}
}

// benchJoinAggDataset builds a multi-segment star join: a fact table of
// 40k rows across 8 segments and a dimension of 1k rows across 2
// segments, backed by an in-memory fetcher.
func benchJoinAggDataset() (*Ctx, *catalog.TableMeta, *catalog.TableMeta) {
	factSch := tuple.NewSchema(
		tuple.Column{Name: "f_id", Kind: tuple.KindInt64},
		tuple.Column{Name: "f_dim", Kind: tuple.KindInt64},
		tuple.Column{Name: "f_val", Kind: tuple.KindFloat64},
	)
	dimSch := tuple.NewSchema(
		tuple.Column{Name: "d_id", Kind: tuple.KindInt64},
		tuple.Column{Name: "d_grp", Kind: tuple.KindInt64},
	)
	factRows := make([]tuple.Row, 40000)
	for i := range factRows {
		factRows[i] = tuple.Row{tuple.Int(int64(i)), tuple.Int(int64(i % 1000)), tuple.Float(float64(i % 97))}
	}
	dimRows := make([]tuple.Row, 1000)
	for i := range dimRows {
		dimRows[i] = tuple.Row{tuple.Int(int64(i)), tuple.Int(int64(i % 10))}
	}
	store := make(map[segment.ObjectID]*segment.Segment)
	cat := catalog.New(0)
	factSegs := segment.Split(0, "fact", factRows, 5000, 1e9)
	dimSegs := segment.Split(0, "dim", dimRows, 500, 1e9)
	for _, sg := range factSegs {
		store[sg.ID] = sg
	}
	for _, sg := range dimSegs {
		store[sg.ID] = sg
	}
	fact := cat.MustAddTable("fact", factSch, factSegs)
	dim := cat.MustAddTable("dim", dimSch, dimSegs)
	return NewTestCtx(store), fact, dim
}

// BenchmarkParallelJoinAgg runs a multi-segment scan → filter → hash join
// → grouped aggregation pipeline at several degrees of parallelism — the
// acceptance comparison for the morsel-driven execution mode. The dop-1
// sub-bench is the serial PR 1 path; results are checked identical at
// every DOP.
func BenchmarkParallelJoinAgg(b *testing.B) {
	ctx, fact, dim := benchJoinAggDataset()
	mkPlan := func() Iterator {
		scanF := NewFilter(NewSeqScan(ctx, fact), expr.ColGE(fact.Schema, "f_id", tuple.Int(1000)))
		join := JoinOn(scanF, NewSeqScan(ctx, dim), [][2]string{{"f_dim", "d_id"}})
		return NewHashAgg(join,
			[]GroupCol{{Name: "d_grp", Kind: tuple.KindInt64, E: expr.Bind(join.Schema(), "d_grp")}},
			[]AggSpec{
				{Kind: AggSum, Arg: expr.Bind(join.Schema(), "f_val"), Name: "s"},
				{Kind: AggCount, Name: "n"},
			})
	}
	dops := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		dops = append(dops, n)
	}
	for _, dop := range dops {
		b.Run(fmt.Sprintf("dop-%d", dop), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if n := drainBatchwise(b, Parallelize(mkPlan(), dop)); n != 10 {
					b.Fatalf("rows %d, want 10", n)
				}
			}
		})
	}
}
