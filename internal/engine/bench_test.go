package engine

import (
	"fmt"
	"testing"

	"repro/internal/expr"
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
