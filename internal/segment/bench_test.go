package segment

import (
	"fmt"
	"testing"

	"repro/internal/tuple"
)

// Codec microbenchmarks: encode, full decode, the projected decode the
// scan path uses, and the individual block encodings. Run with:
//
//	go test -bench 'Encode|Decode' -benchmem ./internal/segment
//
// Representative 1-CPU container numbers are recorded in
// docs/tuning.md's segment-format section.

const benchRows = 2048

func benchSegment(b *testing.B) *Segment {
	b.Helper()
	sg := &Segment{ID: ObjectID{Table: "wide"}, Rows: wideRows(benchRows, 7), NominalBytes: 1e9}
	return sg
}

func BenchmarkEncodeV2(b *testing.B) {
	sg := benchSegment(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sg.EncodeFormat(wideSchema, FormatV2); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEncoded(b *testing.B) []byte {
	b.Helper()
	data, err := benchSegment(b).EncodeFormat(wideSchema, FormatV2)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

func BenchmarkDecodeV2Full(b *testing.B) {
	data := benchEncoded(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(wideSchema, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeProjected measures the scan path: decode 2 of the 8
// columns through the lazy interface with buffer reuse. This is the
// per-segment work a projective query performs.
func BenchmarkDecodeProjected(b *testing.B) {
	data := benchEncoded(b)
	g, err := DecodeLazy(wideSchema, data)
	if err != nil {
		b.Fatal(err)
	}
	proj := []int{0, 4}
	var cd *ColumnData
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cd, err = g.DecodeColumns(wideSchema, proj, cd)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlockEncodings measures each encoding's decode path in
// isolation on a column shaped to select it: the block is the one column
// of a v2 segment encoded from that column alone.
func BenchmarkBlockEncodings(b *testing.B) {
	cases := []struct {
		name string
		kind tuple.Kind
		gen  func(i int) tuple.Value
	}{
		{"delta-sorted-int", tuple.KindInt64, func(i int) tuple.Value { return tuple.Int(int64(1000 + i)) }},
		{"rle-runs-int", tuple.KindInt64, func(i int) tuple.Value { return tuple.Int(int64(i / 64)) }},
		{"raw-float", tuple.KindFloat64, func(i int) tuple.Value { return tuple.Float(float64(i) * 1.5) }},
		{"dict-string", tuple.KindString, func(i int) tuple.Value { return tuple.Str([]string{"AIR", "RAIL", "SHIP"}[i%3]) }},
		{"strraw-string", tuple.KindString, func(i int) tuple.Value { return tuple.Str(fmt.Sprintf("key-%08d", i*2654435761)) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			schema := tuple.NewSchema(tuple.Column{Name: "c", Kind: tc.kind})
			g := &Segment{Rows: make([]tuple.Row, benchRows)}
			for i := range g.Rows {
				g.Rows[i] = tuple.Row{tc.gen(i)}
			}
			data, err := g.EncodeFormat(schema, FormatV2)
			if err != nil {
				b.Fatal(err)
			}
			lz, err := DecodeLazy(schema, data)
			if err != nil {
				b.Fatal(err)
			}
			meta, block := lz.Directory()[0], lz.payload.body
			b.Run("enc="+meta.Encoding.String(), func(b *testing.B) {
				var dst tuple.Vector
				b.SetBytes(int64(len(block)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err = decodeColumn(tc.kind, meta.Encoding, block, benchRows, &dst); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
