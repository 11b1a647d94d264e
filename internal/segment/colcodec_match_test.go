package segment_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/segment"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// checkMatchesReference encodes g with EncodeFormat and with the
// reference encoder and requires the same bytes, in a buffer of exactly
// their length, or the same error. It returns the encoding.
func checkMatchesReference(t *testing.T, name string, g *segment.Segment, schema *tuple.Schema) []byte {
	t.Helper()
	want, werr := segment.ReferenceEncodeV2(g, schema)
	got, gerr := g.EncodeFormat(schema, segment.FormatV2)
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("%s: error %v, reference %v", name, gerr, werr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes differ from the reference's %d\n got %x\nwant %x", name, len(got), len(want), got, want)
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: %d bytes in a %d-byte buffer, want an exact fit", name, len(got), cap(got))
	}
	return got
}

// oneColumn is a single-column segment of the given cells.
func oneColumn(kind tuple.Kind, vals []tuple.Value) (*segment.Segment, *tuple.Schema) {
	rs := make([]tuple.Row, len(vals))
	for i, v := range vals {
		rs[i] = tuple.Row{v}
	}
	return &segment.Segment{ID: segment.ObjectID{Tenant: 2, Table: "one", Index: 5}, Rows: rs, NominalBytes: 1 << 30},
		tuple.NewSchema(tuple.Column{Name: "c", Kind: kind})
}

func ints(xs ...int64) []tuple.Value {
	out := make([]tuple.Value, len(xs))
	for i, x := range xs {
		out[i] = tuple.Int(x)
	}
	return out
}

func strs(ss ...string) []tuple.Value {
	out := make([]tuple.Value, len(ss))
	for i, s := range ss {
		out[i] = tuple.Str(s)
	}
	return out
}

// TestEncodeV2MatchesReference requires the v2 encoder to write the
// reference encoder's bytes on every segment of the four generators and
// on the edge cases of each candidate rule, exact ties included: a tie
// keeps the earlier candidate (raw, then delta, then RLE; str-raw before
// dict). Each tie case asserts its tie, so it cannot silently stop being
// one.
func TestEncodeV2MatchesReference(t *testing.T) {
	datasets := map[string]*workload.Dataset{
		"tpch/50":        workload.TPCH(1, workload.TPCHConfig{SF: 4, RowsPerObject: 50, Seed: 3}),
		"tpch/2000":      workload.TPCH(1, workload.TPCHConfig{SF: 4, RowsPerObject: 2000, Seed: 3}),
		"tpch/clustered": workload.TPCH(1, workload.TPCHConfig{SF: 4, RowsPerObject: 200, Seed: 3, ClusteredDates: true}),
		"ssb":            workload.SSB(1, workload.SSBConfig{SF: 4, RowsPerObject: 200, Seed: 3}),
		"nref":           workload.NREF(1, workload.NREFConfig{TotalGB: 4, RowsPerObject: 200, Seed: 3}),
		"mrbench":        workload.MRBench(1, workload.MRBenchConfig{TotalGB: 4, RowsPerObject: 200, Seed: 3}),
	}
	for name, ds := range datasets {
		for _, table := range ds.Catalog.TableNames() {
			tm := ds.Catalog.MustTable(table)
			for _, id := range tm.Objects {
				checkMatchesReference(t, name+" "+id.String(), ds.Store[id], tm.Schema)
			}
		}
	}

	rng := rand.New(rand.NewSource(11))
	random := make([]tuple.Value, 300)
	for i := range random {
		random[i] = tuple.Int(int64(rng.Uint64()))
	}
	sorted := make([]tuple.Value, 300)
	for i := range sorted {
		sorted[i] = tuple.DateFromDays(7000 + int64(i))
	}
	distinct := make([]tuple.Value, 300)
	for i := range distinct {
		distinct[i] = tuple.Str(fmt.Sprintf("s%05d", i))
	}
	// Values and deltas of magnitude 2^49..2^50 take 8 zigzag-varint
	// bytes, the raw width; a run of one such value takes 9.
	big := int64(1) << 49
	negZero, nan := math.Copysign(0, -1), math.NaN()
	cases := []struct {
		name string
		kind tuple.Kind
		vals []tuple.Value
		enc  segment.Encoding // the expected pick
		tie  [2]int           // when set: the pick's length and the one it ties
	}{
		{"no int", tuple.KindInt64, nil, segment.EncRaw, [2]int{}},
		{"no string", tuple.KindString, nil, segment.EncStrRaw, [2]int{}},
		{"no float", tuple.KindFloat64, nil, segment.EncRaw, [2]int{}},
		{"one int", tuple.KindInt64, ints(-5), segment.EncDelta, [2]int{}},
		{"one string", tuple.KindString, strs("x"), segment.EncStrRaw, [2]int{}},
		{"constant", tuple.KindInt64, ints(9, 9, 9, 9, 9, 9, 9, 9), segment.EncRLE, [2]int{}},
		{"sorted dates", tuple.KindDate, sorted, segment.EncDelta, [2]int{}},
		{"random 64-bit", tuple.KindInt64, random, segment.EncRaw, [2]int{}},
		{"extremes", tuple.KindInt64, ints(math.MinInt64, math.MaxInt64, 0, -1, math.MinInt64), segment.EncDelta, [2]int{}},
		{"bools", tuple.KindBool, []tuple.Value{tuple.Bool(true), tuple.Bool(false), tuple.Bool(false)}, segment.EncDelta, [2]int{}},
		// delta 3×8 = raw 24, RLE 3×9: raw stays.
		{"delta ties raw", tuple.KindInt64, ints(big, 2*big, big), segment.EncRaw, [2]int{24, 24}},
		// RLE (1+1)+(1+1) = delta 1+1+1+1 = 4: delta stays.
		{"rle ties delta", tuple.KindInt64, ints(1, 1, 2, 2), segment.EncDelta, [2]int{4, 4}},
		// dict 1 + (1+2) + 2×1 = str-raw 2×(1+2) = 6: str-raw stays.
		{"dict ties str-raw", tuple.KindString, strs("ab", "ab"), segment.EncStrRaw, [2]int{6, 6}},
		{"floats", tuple.KindFloat64, []tuple.Value{tuple.Float(negZero), tuple.Float(nan), tuple.Float(0), tuple.Float(math.Inf(-1)), tuple.Float(nan)}, segment.EncRaw, [2]int{}},
		{"leading NaN", tuple.KindFloat64, []tuple.Value{tuple.Float(nan), tuple.Float(-1), tuple.Float(negZero), tuple.Float(0)}, segment.EncRaw, [2]int{}},
		{"empty strings", tuple.KindString, strs("", "", "", ""), segment.EncStrRaw, [2]int{}},
		{"empty among others", tuple.KindString, strs("", "lorem ipsum", "", "lorem ipsum", ""), segment.EncDict, [2]int{}},
		{"one distinct", tuple.KindString, strs("MAILMAIL", "MAILMAIL", "MAILMAIL"), segment.EncDict, [2]int{}},
		{"all distinct", tuple.KindString, distinct, segment.EncStrRaw, [2]int{}},
	}
	// A header and directory past the encoder's 256-byte stack buffer: the
	// longest table name and string bounds of 200 bytes.
	g, schema := oneColumn(tuple.KindString, strs(strings.Repeat("a", 200), strings.Repeat("z", 200)))
	g.ID.Table = strings.Repeat("t", segment.MaxTableName)
	checkMatchesReference(t, "long header", g, schema)

	for _, tc := range cases {
		g, schema := oneColumn(tc.kind, tc.vals)
		data := checkMatchesReference(t, tc.name, g, schema)
		lz, err := segment.DecodeLazy(schema, data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := lz.Directory()[0].Encoding; got != tc.enc {
			t.Fatalf("%s: encoded as %v, want %v", tc.name, got, tc.enc)
		}
		if tc.tie != ([2]int{}) {
			if got := candidateLens(tc.kind, tc.vals, tc.enc); got != tc.tie {
				t.Fatalf("%s: candidate lengths %v, want the tie %v", tc.name, got, tc.tie)
			}
		}
	}
}

// candidateLens returns, for a tie case, the block length of the pick and
// of the candidate it ties with, computed by building both blocks.
func candidateLens(kind tuple.Kind, vals []tuple.Value, pick segment.Encoding) [2]int {
	if kind == tuple.KindString {
		index := map[string]int{}
		var raw, entries, ids []byte
		for _, v := range vals {
			raw = append(binary.AppendUvarint(raw, uint64(len(v.S))), v.S...)
			id, ok := index[v.S]
			if !ok {
				id = len(index)
				index[v.S] = id
				entries = append(binary.AppendUvarint(entries, uint64(len(v.S))), v.S...)
			}
			ids = binary.AppendUvarint(ids, uint64(id))
		}
		return [2]int{len(raw), len(binary.AppendUvarint(nil, uint64(len(index)))) + len(entries) + len(ids)}
	}
	var raw, delta, rle []byte
	prev := int64(0)
	for _, v := range vals {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(v.I))
		delta = binary.AppendVarint(delta, v.I-prev)
		prev = v.I
	}
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j].I == vals[i].I {
			j++
		}
		rle = binary.AppendUvarint(binary.AppendVarint(rle, vals[i].I), uint64(j-i))
		i = j
	}
	if pick == segment.EncRaw {
		return [2]int{len(raw), len(delta)}
	}
	return [2]int{len(delta), len(rle)}
}

// TestEncodeV2RefusesLikeReference: a cell of the wrong kind fails with
// the reference encoder's error, and a short row with an arity error.
func TestEncodeV2RefusesLikeReference(t *testing.T) {
	g, schema := oneColumn(tuple.KindInt64, []tuple.Value{tuple.Int(1), tuple.Str("x")})
	checkMatchesReference(t, "kind mismatch", g, schema)
	two := tuple.NewSchema(tuple.Column{Name: "a", Kind: tuple.KindInt64}, tuple.Column{Name: "b", Kind: tuple.KindInt64})
	g = &segment.Segment{ID: segment.ObjectID{Table: "t"}, Rows: []tuple.Row{{tuple.Int(1)}}}
	checkMatchesReference(t, "short row", g, two)
	if _, err := g.EncodeFormat(two, segment.FormatV2); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("short row: %v, want an arity error", err)
	}
}
