package tuple

import (
	"math"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
)

// TestReleasedMemoryIsPoisoned: in a test binary every cell of a released
// array reads as the poison of its kind — numerics as a sentinel, string
// headers as a marker — so a reader holding on past release sees garbage,
// not the data it expected. The next Take of the class hands the same array
// out again.
func TestReleasedMemoryIsPoisoned(t *testing.T) {
	b := NewBatch(NewSchema(Column{Name: "i", Kind: KindInt64}, Column{Name: "f", Kind: KindFloat64},
		Column{Name: "s", Kind: KindString}), 100)
	b.AppendRow(Row{Int(7), Float(2.5), Str("seven")})
	i, f, s := b.Col(0).I[:1], b.Col(1).F[:1], b.Col(2).S[:1]
	b.Release()
	const word = 0xDEDEDEDE_DEDEDEDE
	if uint64(i[0]) != word || math.Float64bits(f[0]) != word || s[0] != releasedString {
		t.Fatalf("released cells read %d, %v, %q; want the poison", i[0], f[0], s[0])
	}
	if b.Len() != 0 || b.Cap() != 0 {
		t.Fatalf("a released batch has %d rows of %d", b.Len(), b.Cap())
	}
	ids := Take[int32](20)
	ids[3] = 3
	Release(ids)
	if uint32(ids[:4][3]) != 0xDEDEDEDE {
		t.Fatalf("released int32 cell reads %d", ids[3])
	}
	again := Take[int32](17)
	if cap(again) != 32 || &again[:4][3] != &ids[:4][3] {
		t.Fatal("Take did not hand the released array out again")
	}
	Release(again)
}

// TestReleasedBatchIsPoisoned: in a test binary a released batch reads
// through a schema whose one column names the mistake, releasing it again
// panics, and a write to it is caught when the pool hands its shell out
// again.
func TestReleasedBatchIsPoisoned(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection would empty the pool
	sch := NewSchema(Column{Name: "i", Kind: KindInt64})
	b := NewBatch(sch, 8)
	b.AppendRow(Row{Int(1)})
	b.Release()
	if got := b.Schema().ColumnNames(); len(got) != 1 || !strings.Contains(got[0], "used after Release") {
		t.Fatalf("a released batch reads through columns %q", got)
	}
	mustPanic(t, "released a Batch twice", b.Release)
	b.AppendRow(Row{})
	mustPanic(t, "used after Release", func() { NewBatch(sch, 8) })
}

// TestDoubleReleasePanics: releasing an array that is already free would
// hand it to two owners; in a test binary it panics.
func TestDoubleReleasePanics(t *testing.T) {
	h := Take[uint64](64)
	Release(h)
	mustPanic(t, "released twice", func() { Release(h) })
}

// TestPoolTakesBackOnlyWholeClasses: an array whose capacity is not a size
// class's — a carved column, a slice grown by append — goes to the
// collector, and a view's columns are never released. In a test binary an
// array of a class's capacity that Take did not hand out — a column carved
// from a batch's arena, a caller's own — panics.
func TestPoolTakesBackOnlyWholeClasses(t *testing.T) {
	odd := make([]int64, 100)
	odd[0] = 1
	Release(odd)
	if odd[0] != 1 {
		t.Fatal("an array of capacity 100 entered the pool")
	}
	two := NewSchema(Column{Name: "a", Kind: KindInt64}, Column{Name: "b", Kind: KindInt64})
	carved := NewBatch(two, 1024) // an operator batch's capacity
	mustPanic(t, "never handed out", func() { Release(carved.Col(1).I) })
	mustPanic(t, "never handed out", func() { Release(make([]uint64, 1024)) })
	carved.Release()
	owner := FromRows(NewSchema(Column{Name: "i", Kind: KindInt64}), []Row{{Int(1)}, {Int(2)}})
	view := ViewOf(owner.Schema(), []Vector{owner.Col(0)}, 2)
	view.Release()
	if got := owner.Col(0).I; got[0] != 1 || got[1] != 2 {
		t.Fatalf("releasing a view wrote into its owner: %v", got)
	}
}

func mustPanic(t *testing.T, want string, release func()) {
	t.Helper()
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, want) {
			t.Fatalf("release: recovered %q, want a panic saying %q", r, want)
		}
	}()
	release()
}

// TestPoolSharedAcrossGoroutines: queries on several goroutines draw from
// and release to the one pool at once; an array is never handed to two of
// them, so what each writes is what it reads back. Run it under -race.
func TestPoolSharedAcrossGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 300 {
				cells := Take[int64](20 + i%100)
				for k := range cells {
					cells[k] = int64(g)
				}
				for k, x := range cells {
					if x != int64(g) {
						t.Errorf("goroutine %d: cell %d reads %d", g, k, x)
						return
					}
				}
				Release(cells)
			}
		}()
	}
	wg.Wait()
}
