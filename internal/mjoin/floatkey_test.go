package mjoin

import (
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/segment"
	"repro/internal/tuple"
)

// TestFloatKeyLevelJoinsByValue: a probe level over float keys matches 0.0
// with -0.0 (one hash, one key) and NaN with NaN only, in root order then
// build order, and the pull engine returns the same rows. The level used
// to hash ±0 apart and to take NaN for every float.
func TestFloatKeyLevelJoinsByValue(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cat := catalog.New(0)
	store := make(map[segment.ObjectID]*segment.Segment)
	add := func(name, col string, keys []float64) {
		sch := tuple.NewSchema(tuple.Column{Name: col, Kind: tuple.KindFloat64}, tuple.Column{Name: col + "_i", Kind: tuple.KindInt64})
		rows := make([]tuple.Row, len(keys))
		for i, k := range keys {
			rows[i] = tuple.Row{tuple.Float(k), tuple.Int(int64(i))}
		}
		segs := segment.Split(0, name, rows, 2, 1e9)
		for _, sg := range segs {
			store[sg.ID] = sg
		}
		cat.MustAddTable(name, sch, segs)
	}
	add("a", "af", []float64{0, negZero, math.NaN(), 1})
	add("b", "bf", []float64{negZero, math.NaN(), 2, 0})
	q := &Query{
		ID:        "floats",
		Relations: []Relation{{Table: cat.MustTable("a")}, {Table: cat.MustTable("b")}},
		Joins:     []JoinCond{{Rel: 1, LeftCol: "af", RightCol: "bf"}},
	}
	res, err := Run(q, DefaultConfig(100), &scriptSource{store: store})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"(0, 0, -0, 0)", "(-0, 1, -0, 0)", "(NaN, 2, NaN, 1)", // b's first segment
		"(0, 0, 0, 3)", "(-0, 1, 0, 3)", // its second
	}
	sort.Strings(want)
	if got := canon(res.Rows); !slices.Equal(got, want) {
		t.Fatalf("mjoin rows %v, want %v", got, want)
	}
	if pull := baselineJoin(t, q, store); !equalMultisets(res.Rows, pull) {
		t.Fatalf("mjoin %v, pull engine %v", res.Rows, pull)
	}
}
