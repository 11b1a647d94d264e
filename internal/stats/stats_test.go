package stats

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/segment"
	"repro/internal/tuple"
)

var testSchema = tuple.NewSchema(
	tuple.Column{Name: "k", Kind: tuple.KindInt64},
	tuple.Column{Name: "d", Kind: tuple.KindDate},
	tuple.Column{Name: "s", Kind: tuple.KindString},
	tuple.Column{Name: "f", Kind: tuple.KindFloat64},
)

func testSegments(rng *rand.Rand, nSegs, rowsPer int) []*segment.Segment {
	var segs []*segment.Segment
	for si := 0; si < nSegs; si++ {
		rows := make([]tuple.Row, rowsPer)
		for i := range rows {
			rows[i] = tuple.Row{
				tuple.Int(int64(si*100 + rng.Intn(50))),
				tuple.DateFromDays(int64(8000 + si*30 + rng.Intn(25))),
				tuple.Str(string(rune('a'+si)) + string(rune('a'+rng.Intn(4)))),
				tuple.Float(float64(si) + rng.Float64()),
			}
		}
		segs = append(segs, &segment.Segment{
			ID:   segment.ObjectID{Table: "t", Index: si},
			Rows: rows,
		})
	}
	return segs
}

func TestCollectZoneMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	segs := testSegments(rng, 3, 20)
	tab := Collect("t", testSchema, segs, DefaultOptions())
	if len(tab.Segments) != 3 {
		t.Fatalf("segments = %d", len(tab.Segments))
	}
	for si, ss := range tab.Segments {
		if ss.Rows != 20 {
			t.Fatalf("segment %d rows = %d", si, ss.Rows)
		}
		for ci := range testSchema.Cols {
			cs := ss.Cols[ci]
			if !cs.HasRange {
				t.Fatalf("segment %d col %d has no range", si, ci)
			}
			if cs.Nulls != 0 {
				t.Fatalf("segment %d col %d nulls = %d", si, ci, cs.Nulls)
			}
			for _, row := range segs[si].Rows {
				v := row[ci]
				if tuple.Compare(v, cs.Min) < 0 || tuple.Compare(v, cs.Max) > 0 {
					t.Fatalf("segment %d col %d: %v outside [%v, %v]", si, ci, v, cs.Min, cs.Max)
				}
				if cs.Bloom != nil && !cs.Bloom.MayContain(v.Hash()) {
					t.Fatalf("segment %d col %d: bloom false negative for %v", si, ci, v)
				}
			}
		}
		// Floats get zone maps but no Bloom; the others get both.
		if ss.Cols[3].Bloom != nil {
			t.Fatal("float column got a Bloom filter")
		}
		if ss.Cols[0].Bloom == nil || ss.Cols[2].Bloom == nil {
			t.Fatal("int/string column missing a Bloom filter")
		}
	}
}

func TestCollectEmptySegment(t *testing.T) {
	segs := []*segment.Segment{{ID: segment.ObjectID{Table: "t"}}}
	tab := Collect("t", testSchema, segs, DefaultOptions())
	if tab.Segments[0].Rows != 0 || tab.Segments[0].Cols[0].HasRange {
		t.Fatalf("empty segment stats: %+v", tab.Segments[0])
	}
}

// encodedV2 returns the segments encoded to v2 and lazily decoded back.
func encodedV2(t *testing.T, segs []*segment.Segment) []*segment.Segment {
	t.Helper()
	out := make([]*segment.Segment, len(segs))
	for i, sg := range segs {
		data, err := sg.EncodeFormat(testSchema, segment.FormatV2)
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = segment.DecodeLazy(testSchema, data); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// collectScratch collects segs and returns the table plus the bytes the
// collection allocated beyond the table itself: its segment entries,
// []ColumnStats and Blooms.
func collectScratch(t *testing.T, segs []*segment.Segment) (*Table, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tab, err := CollectChecked("t", testSchema, segs, DefaultOptions())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	result := reflect.TypeOf(*tab).Size() + uintptr(cap(tab.Segments))*reflect.TypeOf(SegmentStats{}).Size()
	for _, ss := range tab.Segments {
		result += uintptr(cap(ss.Cols)) * reflect.TypeOf(ColumnStats{}).Size()
		for _, cs := range ss.Cols {
			if cs.Bloom != nil {
				result += reflect.TypeOf(*cs.Bloom).Size() + 8*uintptr(len(cs.Bloom.bits))
			}
		}
	}
	return tab, after.TotalAlloc - before.TotalAlloc - uint64(result)
}

// TestCollectDecodeDoesNotScaleWithSegments: collecting v2 segments
// decodes every Bloom column into storage reused across columns and
// segments, so what a collection allocates beyond its result barely
// moves between N and 4N segments — and the statistics equal the ones
// the row path computes from the same rows. Each worker of the fan-out
// keeps scratch of its own, so the segment count is varied on one worker.
func TestCollectDecodeDoesNotScaleWithSegments(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 4
	rows := testSegments(rand.New(rand.NewSource(5)), 4*n, 1000)
	_, few := collectScratch(t, encodedV2(t, rows[:n]))
	tab, many := collectScratch(t, encodedV2(t, rows))
	t.Logf("collection scratch: %d bytes over %d segments, %d over %d", few, n, many, 4*n)
	if few == 0 || float64(many) > 1.25*float64(few) {
		t.Fatalf("collection scratch: %d bytes over %d segments, %d over %d; want within ×1.25", few, n, many, 4*n)
	}
	if want := Collect("t", testSchema, rows, DefaultOptions()); !reflect.DeepEqual(tab, want) {
		t.Fatal("statistics collected from v2 directories and decodes differ from the row path's")
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBloom(1000, 10)
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = rng.Uint64()
		b.Add(keys[i])
	}
	for _, k := range keys {
		if !b.MayContain(k) {
			t.Fatalf("false negative for %d", k)
		}
	}
	// FPR sanity: at 10 bits/key the false-positive rate should be low.
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if b.MayContain(rng.Uint64()) {
			fp++
		}
	}
	if fp > probes/20 { // 5%, far above the ≈1% expectation
		t.Fatalf("false positive rate %d/%d too high", fp, probes)
	}
}
