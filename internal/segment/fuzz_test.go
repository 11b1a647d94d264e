package segment

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/tuple"
)

// The decode fuzz targets assert the decoder's contract on arbitrary
// input: malformed bytes always yield an error wrapping ErrCorrupt — never
// a panic, never an unbounded allocation — and successful decodes are
// schema-shaped. FuzzEncodeV2 turns the input into rows instead and holds
// the encoder to the reference encoder and to a lossless round trip. CI
// runs a short `go test -fuzz` smoke per target; the committed corpus is
// the seed set below plus anything the fuzzer saves.

// fuzzSchema mixes all kinds so every column codec branch is exercised.
var fuzzSchema = tuple.NewSchema(
	tuple.Column{Name: "a", Kind: tuple.KindInt64},
	tuple.Column{Name: "b", Kind: tuple.KindFloat64},
	tuple.Column{Name: "c", Kind: tuple.KindString},
	tuple.Column{Name: "d", Kind: tuple.KindDate},
	tuple.Column{Name: "e", Kind: tuple.KindBool},
)

func fuzzRows(n int) []tuple.Row {
	out := make([]tuple.Row, n)
	for i := range out {
		out[i] = tuple.Row{
			tuple.Int(int64(i * 3)),
			tuple.Float(float64(i) * 0.5),
			tuple.Str(string(rune('a' + i%4))),
			tuple.DateFromDays(9000 + int64(i)),
			tuple.Bool(i%2 == 0),
		}
	}
	return out
}

// seedCorpus returns valid encodings to start the fuzzer near the
// interesting surface.
func seedCorpus(tb testing.TB) [][]byte {
	var out [][]byte
	for _, n := range []int{0, 1, 5, 40} {
		g := &Segment{ID: ObjectID{Tenant: 1, Table: "fz", Index: n}, Rows: fuzzRows(n), NominalBytes: 1 << 28}
		data, err := g.EncodeFormat(fuzzSchema, FormatV2)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// checkDecode is the shared oracle: Decode (which materializes every
// row, walking every block) must either fail with ErrCorrupt or produce
// a schema-consistent segment.
func checkDecode(t *testing.T, data []byte) {
	sg, err := Decode(fuzzSchema, data)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error %v does not wrap ErrCorrupt", err)
		}
		return
	}
	if sg == nil {
		t.Fatal("nil segment without error")
	}
	if sg.NominalBytes < 0 {
		t.Fatalf("accepted negative NominalBytes %d", sg.NominalBytes)
	}
	for i, r := range sg.Rows {
		if err := fuzzSchema.Validate(r); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	// A lazy decode of the same bytes must agree with the eager rows cell
	// for cell — kind and payload, floats by bit pattern — on every typed
	// vector of a full decode and on the matching vectors of projected ones,
	// into a fresh buffer and into one warm from another projection.
	lz, err := DecodeLazy(fuzzSchema, data)
	if err != nil {
		t.Fatalf("Decode succeeded but DecodeLazy failed: %v", err)
	}
	var cd *ColumnData
	for _, proj := range [][]int{nil, {2}, {4, 1}, {}, {0, 2, 3}} {
		if cd, err = lz.DecodeColumns(fuzzSchema, proj, cd); err != nil {
			t.Fatalf("Decode succeeded but decode of columns %v failed: %v", proj, err)
		}
		if cd.NumRows != len(sg.Rows) {
			t.Fatalf("decode of columns %v saw %d rows, eager saw %d", proj, cd.NumRows, len(sg.Rows))
		}
		if proj == nil {
			proj = []int{0, 1, 2, 3, 4}
		}
		for _, ci := range proj {
			for i, r := range sg.Rows {
				got, want := cd.Cols[ci].Value(fuzzSchema.Cols[ci].Kind, i), r[ci]
				if got.K != want.K || got.I != want.I || got.S != want.S || math.Float64bits(got.F) != math.Float64bits(want.F) {
					t.Fatalf("row %d column %d: typed decode %#v, eager %#v", i, ci, got, want)
				}
			}
		}
	}
	// Decoded strings, dictionary entries too, own their bytes: overwriting
	// the object after a decode changes none of them.
	own := bytes.Clone(data)
	if lz, err = DecodeLazy(fuzzSchema, own); err != nil {
		t.Fatalf("DecodeLazy of a copy failed: %v", err)
	}
	if cd, err = lz.DecodeColumns(fuzzSchema, []int{2}, nil); err != nil {
		t.Fatalf("decode of a copy failed: %v", err)
	}
	for i := range own {
		own[i] = ^own[i]
	}
	for i, r := range sg.Rows {
		if got := cd.Cols[2].S[i]; got != r[2].S {
			t.Fatalf("row %d: string %q reads %q once the object's bytes are overwritten", i, r[2].S, got)
		}
	}
}

// FuzzDecodeV2 fuzzes the decoder (trailer and header checks, directory
// parsing, per-encoding block decoders, projection bookkeeping). Almost
// every mutation of a sealed object stops at the checksum, so each input
// is decoded as is and once more sealed with a valid trailer; the seeds
// are encoded objects with their trailer stripped, which the sealed pass
// restores.
func FuzzDecodeV2(f *testing.F) {
	for _, data := range seedCorpus(f) {
		f.Add(data[:len(data)-8])
	}
	f.Add(magicV2[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		checkDecode(t, seal(data))
	})
}

// rowsFromFuzz derives rows of fuzzSchema from fuzz input. Each cell reads
// a control byte that repeats the column's previous cell, or draws a small
// or a full-width value, so runs, slowly moving stretches, repeated and
// distinct strings, random 64-bit ints and every float bit pattern (-0,
// NaN payloads) all occur. Input past the end reads as zeros.
func rowsFromFuzz(data []byte) []tuple.Row {
	take := func(n int) uint64 {
		var b [8]byte
		data = data[copy(b[:n], data):]
		return binary.LittleEndian.Uint64(b[:])
	}
	var out []tuple.Row
	for len(data) > 0 && len(out) < 1000 {
		r := make(tuple.Row, fuzzSchema.Len())
		for ci, col := range fuzzSchema.Cols {
			ctl := take(1)
			full := ctl&2 != 0
			switch {
			case ctl&1 != 0 && len(out) > 0:
				r[ci] = out[len(out)-1][ci]
			case col.Kind == tuple.KindFloat64 && full:
				r[ci] = tuple.Float(math.Float64frombits(take(8)))
			case col.Kind == tuple.KindFloat64:
				r[ci] = tuple.Float(float64(int8(take(1))))
			case col.Kind == tuple.KindString:
				b := make([]byte, ctl>>2&15)
				data = data[copy(b, data):]
				r[ci] = tuple.Str(string(b))
			case col.Kind == tuple.KindBool:
				r[ci] = tuple.Bool(ctl&4 != 0)
			case full:
				r[ci] = tuple.Value{K: col.Kind, I: int64(take(8))}
			default:
				r[ci] = tuple.Value{K: col.Kind, I: int64(int8(take(1)))}
			}
		}
		out = append(out, r)
	}
	return out
}

// FuzzEncodeV2 holds the v2 encoder to the reference encoder's bytes on
// rows derived from the input, and requires Decode to return those rows
// cell for cell, floats by bit pattern.
func FuzzEncodeV2(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte("\x02\x00\x00\x00\x00\x00\x00\x00\x80\x02\x01\x00\x00\x00\x00\x00\xf8\x7f\x10abcd\x02\x01\x05"))
	f.Add([]byte("\x00\x05\x08ab\x00\x04\x01\x01\x01\x01\x01\x00\x09\x08ab\x00\x00\x01\x01\x01\x01\x01"))
	f.Fuzz(func(t *testing.T, in []byte) {
		g := &Segment{ID: ObjectID{Tenant: 1, Table: "fz", Index: 2}, Rows: rowsFromFuzz(in), NominalBytes: 1 << 28}
		want, err := referenceEncodeV2(g, fuzzSchema)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g.EncodeFormat(fuzzSchema, FormatV2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoding differs from the reference's\n got %x\nwant %x", got, want)
		}
		back, err := Decode(fuzzSchema, got)
		if err != nil {
			t.Fatal(err)
		}
		if len(back.Rows) != len(g.Rows) {
			t.Fatalf("decoded %d rows, encoded %d", len(back.Rows), len(g.Rows))
		}
		for i, r := range g.Rows {
			for ci, want := range r {
				got := back.Rows[i][ci]
				if got.K != want.K || got.I != want.I || got.S != want.S || math.Float64bits(got.F) != math.Float64bits(want.F) {
					t.Fatalf("row %d column %d: decoded %#v, encoded %#v", i, ci, got, want)
				}
			}
		}
	})
}
