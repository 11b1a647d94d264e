package segment

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/tuple"
)

// wideSchema exercises every kind and every encoding family.
var wideSchema = tuple.NewSchema(
	tuple.Column{Name: "id", Kind: tuple.KindInt64},      // sorted → delta
	tuple.Column{Name: "code", Kind: tuple.KindInt64},    // runs → rle
	tuple.Column{Name: "rand", Kind: tuple.KindInt64},    // random → raw
	tuple.Column{Name: "price", Kind: tuple.KindFloat64}, // raw
	tuple.Column{Name: "tag", Kind: tuple.KindString},    // low card → dict
	tuple.Column{Name: "blob", Kind: tuple.KindString},   // high card → str-raw
	tuple.Column{Name: "day", Kind: tuple.KindDate},      // delta
	tuple.Column{Name: "flag", Kind: tuple.KindBool},     // rle
)

func wideRows(n int, seed int64) []tuple.Row {
	rng := rand.New(rand.NewSource(seed))
	tags := []string{"AIR", "RAIL", "SHIP"}
	out := make([]tuple.Row, n)
	for i := range out {
		blob := make([]byte, 6+rng.Intn(10))
		rng.Read(blob)
		out[i] = tuple.Row{
			tuple.Int(int64(1000 + i)),
			tuple.Int(int64(i / 7)),
			tuple.Int(rng.Int63() - rng.Int63()),
			tuple.Float(rng.NormFloat64() * 1e6),
			tuple.Str(tags[rng.Intn(len(tags))]),
			tuple.Str(string(blob)),
			tuple.DateFromDays(8000 + int64(i%90)),
			tuple.Bool(i%13 == 0),
		}
	}
	return out
}

func wideSegment(n int) *Segment {
	return &Segment{
		ID:           ObjectID{Tenant: 1, Table: "wide", Index: 3},
		Rows:         wideRows(n, 42),
		NominalBytes: 1e9,
	}
}

func TestV2RoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		orig := wideSegment(n)
		data, err := orig.EncodeFormat(wideSchema, FormatV2)
		if err != nil {
			t.Fatalf("n=%d: encode: %v", n, err)
		}
		back, err := Decode(wideSchema, data)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if back.ID != orig.ID || back.NominalBytes != orig.NominalBytes {
			t.Fatalf("n=%d: header mismatch: %+v", n, back)
		}
		if len(back.Rows) != len(orig.Rows) {
			t.Fatalf("n=%d: %d rows, want %d", n, len(back.Rows), len(orig.Rows))
		}
		for i := range orig.Rows {
			if !reflect.DeepEqual(orig.Rows[i], back.Rows[i]) {
				t.Fatalf("n=%d row %d: %v != %v", n, i, back.Rows[i], orig.Rows[i])
			}
		}
	}
}

// TestDecodeColumnsReuseAllocatesNothing: decoding an all-numeric projection
// into a ColumnData warm from the same projection allocates nothing — no
// bitmap, no vector, no per-value bookkeeping — and still accounts for every
// byte. A dictionary column adds one allocation, its block's one string,
// and decodes to the rows' strings.
func TestDecodeColumnsReuseAllocatesNothing(t *testing.T) {
	data, err := wideSegment(500).EncodeFormat(wideSchema, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecodeLazy(wideSchema, data)
	if err != nil {
		t.Fatal(err)
	}
	proj := []int{0, 1, 2, 3, 6, 7} // every encoding of the numeric kinds
	cd, err := g.DecodeColumns(wideSchema, proj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := g.DecodeColumns(wideSchema, proj, cd); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm numeric decode allocates %v times per call, want 0", allocs)
	}
	if want := int64(8 * 500 * len(proj)); cd.BytesMaterialized != want {
		t.Fatalf("BytesMaterialized %d, want %d", cd.BytesMaterialized, want)
	}

	const tag = 4
	if g.Directory()[tag].Encoding != EncDict {
		t.Fatalf("column %d is %v, want a dictionary block", tag, g.Directory()[tag].Encoding)
	}
	proj = append(proj, tag)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := g.DecodeColumns(wideSchema, proj, cd); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("warm decode with a dictionary column allocates %v times per call, want at most 1", allocs)
	}
	for i, r := range wideRows(500, 42) {
		if got := cd.Cols[tag].S[i]; got != r[tag].S {
			t.Fatalf("row %d: dictionary decode %q, want %q", i, got, r[tag].S)
		}
	}
}

// TestEncodeV2AllocatesOnce: a v2 encode allocates its payload once, at
// its final size, plus scratch — no candidate blocks, no transposed
// columns, no growth copies, and the string dictionary comes from the
// working-memory pool. The budget is 1.25× the encoded size.
func TestEncodeV2AllocatesOnce(t *testing.T) {
	g := wideSegment(2000)
	data, err := g.EncodeFormat(wideSchema, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := g.EncodeFormat(wideSchema, FormatV2); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perEncode := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("encoding %d bytes allocates %d bytes", len(data), perEncode)
	if limit := uint64(len(data)) * 5 / 4; perEncode > limit {
		t.Fatalf("encoding %d bytes allocates %d bytes, budget %d", len(data), perEncode, limit)
	}
}

// TestEncodeLazySegmentRefused: a lazily decoded segment holds a payload,
// not Rows, so encoding it again is refused rather than writing an empty
// segment.
func TestEncodeLazySegmentRefused(t *testing.T) {
	data, err := wideSegment(20).EncodeFormat(wideSchema, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	lz, err := DecodeLazy(wideSchema, data)
	if err != nil {
		t.Fatal(err)
	}
	out, err := lz.EncodeFormat(wideSchema, FormatV2)
	if err == nil || !strings.Contains(err.Error(), "lazily decoded") {
		t.Fatalf("lazy segment re-encoded: %d bytes, error %v", len(out), err)
	}
}

// decoded reports whether a vector of a non-empty segment holds a column.
func decoded(v tuple.Vector) bool { return v.I != nil || v.F != nil || v.S != nil }

func TestV2ProjectedDecode(t *testing.T) {
	orig := wideSegment(64)
	data, err := orig.EncodeFormat(wideSchema, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecodeLazy(wideSchema, data)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Lazy() || g.NumRows() != 64 {
		t.Fatalf("lazy=%v rows=%d", g.Lazy(), g.NumRows())
	}
	if g.EncodedSize() != int64(len(data)) {
		t.Fatalf("EncodedSize %d, want %d", g.EncodedSize(), len(data))
	}
	proj := []int{0, 4} // id, tag
	cd, err := g.DecodeColumns(wideSchema, proj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cd.NumRows != 64 {
		t.Fatalf("NumRows %d", cd.NumRows)
	}
	for ci := range wideSchema.Cols {
		want := ci == 0 || ci == 4
		if decoded(cd.Cols[ci]) != want {
			t.Fatalf("column %d decoded=%v, want %v", ci, decoded(cd.Cols[ci]), want)
		}
	}
	for i, r := range orig.Rows {
		if !tuple.Equal(cd.Cols[0].Value(wideSchema.Cols[0].Kind, i), r[0]) || !tuple.Equal(cd.Cols[4].Value(wideSchema.Cols[4].Kind, i), r[4]) {
			t.Fatalf("row %d: projected values diverge", i)
		}
	}
	if cd.BytesDecoded <= 0 || cd.BytesSkipped <= 0 {
		t.Fatalf("byte accounting: decoded=%d skipped=%d", cd.BytesDecoded, cd.BytesSkipped)
	}
	dir := g.Directory()
	var total int64
	for _, m := range dir {
		total += int64(m.BlockLen)
	}
	if cd.BytesDecoded+cd.BytesSkipped != total {
		t.Fatalf("decoded+skipped = %d, directory total %d", cd.BytesDecoded+cd.BytesSkipped, total)
	}

	// Empty (non-nil) projection: row count only, no block decoded.
	cd, err = g.DecodeColumns(wideSchema, []int{}, cd)
	if err != nil {
		t.Fatal(err)
	}
	if cd.BytesDecoded != 0 || cd.BytesSkipped != total || cd.NumRows != 64 {
		t.Fatalf("empty projection: decoded=%d skipped=%d rows=%d", cd.BytesDecoded, cd.BytesSkipped, cd.NumRows)
	}

	// Out-of-range projection is an error, not a panic.
	if _, err := g.DecodeColumns(wideSchema, []int{99}, nil); err == nil {
		t.Fatal("out-of-range projection accepted")
	}
}

func TestV2DirectoryZoneMaps(t *testing.T) {
	orig := wideSegment(50)
	data, err := orig.EncodeFormat(wideSchema, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecodeLazy(wideSchema, data)
	if err != nil {
		t.Fatal(err)
	}
	dir := g.Directory()
	for ci, col := range wideSchema.Cols {
		min, max := orig.Rows[0][ci], orig.Rows[0][ci]
		for _, r := range orig.Rows[1:] {
			if tuple.Compare(r[ci], min) < 0 {
				min = r[ci]
			}
			if tuple.Compare(r[ci], max) > 0 {
				max = r[ci]
			}
		}
		m := dir[ci]
		if !m.HasRange || !tuple.Equal(m.Min, min) || !tuple.Equal(m.Max, max) {
			t.Fatalf("column %q: directory [%v, %v], rows [%v, %v]", col.Name, m.Min, m.Max, min, max)
		}
		if m.Nulls != 0 {
			t.Fatalf("column %q: %d nulls", col.Name, m.Nulls)
		}
	}
}

func TestDecodeRejectsNegativeNominalBytes(t *testing.T) {
	// Regression: a crafted header with a negative nominal size used to
	// decode successfully and corrupt the virtual-time transfer model
	// (negative sleep). Encode refuses one, and decode rejects one with
	// ErrCorrupt.
	orig := &Segment{ID: ObjectID{Table: "t"}, Rows: rows(2), NominalBytes: -1}
	if _, err := orig.EncodeFormat(sch, FormatV2); err == nil {
		t.Fatal("encode accepted negative NominalBytes")
	}
	orig.NominalBytes = 7
	data, err := orig.EncodeFormat(sch, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	good, err := Decode(sch, data)
	if err != nil || good.NominalBytes != 7 {
		t.Fatalf("baseline decode: %v", err)
	}
	// Patch the nominal-size varint (after magic + two zero-ish varints)
	// and re-seal the body.
	patched := append([]byte(nil), data[:4]...)
	patched = binary.AppendVarint(patched, 0)
	patched = binary.AppendVarint(patched, 0)
	patched = binary.AppendVarint(patched, -9)
	patched = append(patched, data[4+3:len(data)-8]...) // original had three 1-byte varints (0, 0, 7)
	if _, err := Decode(sch, seal(patched)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "negative nominal size") {
		t.Fatalf("negative NominalBytes: got %v, want ErrCorrupt naming the negative nominal size", err)
	}
}

func TestV2DecodeCorruptTyped(t *testing.T) {
	orig := wideSegment(12)
	data, err := orig.EncodeFormat(wideSchema, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	// Every prefix truncation must fail with ErrCorrupt (at DecodeLazy or
	// at materialization) and never panic.
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(wideSchema, data[:cut]); err == nil {
			t.Fatalf("truncated at %d accepted", cut)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated at %d: %v does not wrap ErrCorrupt", cut, err)
		}
	}
	// Flipping header, directory or block bytes must never panic; if it
	// decodes, it must still be schema-shaped. Each flipped body is
	// re-sealed, so it reaches the directory and block decoders instead of
	// stopping at the checksum.
	body := data[:len(data)-8]
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 3000; i++ {
		mut := append([]byte(nil), body...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		sg, err := Decode(wideSchema, seal(mut))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("mutation %d: %v does not wrap ErrCorrupt", i, err)
			}
			continue
		}
		for _, r := range sg.Rows {
			if len(r) != wideSchema.Len() {
				t.Fatalf("mutation %d: row arity %d", i, len(r))
			}
		}
	}
}

func TestV2RejectsAbsurdRowCount(t *testing.T) {
	orig := &Segment{ID: ObjectID{Table: "t"}, Rows: rows(1), NominalBytes: 1}
	data, err := orig.EncodeFormat(sch, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the buffer with a ludicrous row count: magic + header, then
	// a row count beyond MaxSegmentRows.
	patched := append([]byte(nil), data[:4]...)
	patched = binary.AppendVarint(patched, 0)
	patched = binary.AppendVarint(patched, 0)
	patched = binary.AppendVarint(patched, 1)
	patched = binary.AppendUvarint(patched, 1)
	patched = append(patched, 't')
	patched = binary.AppendUvarint(patched, MaxSegmentRows+1)
	patched = binary.AppendUvarint(patched, uint64(sch.Len()))
	if _, err := DecodeLazy(sch, seal(patched)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "exceeds MaxSegmentRows") {
		t.Fatalf("absurd row count: got %v, want ErrCorrupt naming MaxSegmentRows", err)
	}
}

func TestV2RejectsOverflowingBlockLengths(t *testing.T) {
	// Regression: two directory entries whose uvarint block lengths sum
	// past int64 used to wrap the directory total into agreement with the
	// remaining bytes, and the negative per-column length then panicked
	// DecodeColumns. Both entries must be rejected at parse time.
	data := append([]byte(nil), magicV2[:]...)
	data = binary.AppendVarint(data, 0) // tenant
	data = binary.AppendVarint(data, 0) // index
	data = binary.AppendVarint(data, 1) // nominal
	data = binary.AppendUvarint(data, 1)
	data = append(data, 't')
	data = binary.AppendUvarint(data, 1)                 // rows
	data = binary.AppendUvarint(data, uint64(sch.Len())) // cols
	huge := uint64(1) << 63
	entry := func(bl uint64) {
		data = append(data, byte(EncRaw))
		data = binary.AppendUvarint(data, bl)
		data = binary.AppendUvarint(data, 0) // nulls
		data = append(data, 0)               // no range
	}
	entry(huge)
	entry(huge + 8)
	data = append(data, make([]byte, 8)...) // "blocks"
	g, err := DecodeLazy(sch, seal(data))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "block length") {
		t.Fatalf("overflowing block lengths: got %v (segment %v), want ErrCorrupt naming the block length", err, g)
	}
}

func TestFloatRoundTripExact(t *testing.T) {
	s := tuple.NewSchema(tuple.Column{Name: "f", Kind: tuple.KindFloat64})
	specials := []float64{0, math.Copysign(0, -1), 1.5, -1e308, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64}
	rs := make([]tuple.Row, len(specials))
	for i, f := range specials {
		rs[i] = tuple.Row{tuple.Float(f)}
	}
	orig := &Segment{ID: ObjectID{Table: "f"}, Rows: rs, NominalBytes: 1}
	data, err := orig.EncodeFormat(s, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(s, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if math.Float64bits(back.Rows[i][0].F) != math.Float64bits(rs[i][0].F) {
			t.Fatalf("float %d not bit-exact: %v vs %v", i, back.Rows[i][0], rs[i][0])
		}
	}
}
