package segment

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tuple"
)

var sch = tuple.NewSchema(
	tuple.Column{Name: "k", Kind: tuple.KindInt64},
	tuple.Column{Name: "v", Kind: tuple.KindString},
)

func rows(n int) []tuple.Row {
	out := make([]tuple.Row, n)
	for i := range out {
		out[i] = tuple.Row{tuple.Int(int64(i)), tuple.Str("row")}
	}
	return out
}

func TestSplitSizes(t *testing.T) {
	segs := Split(3, "tbl", rows(10), 4, 1<<30)
	if len(segs) != 3 {
		t.Fatalf("got %d segments", len(segs))
	}
	if len(segs[0].Rows) != 4 || len(segs[1].Rows) != 4 || len(segs[2].Rows) != 2 {
		t.Fatalf("row counts %d %d %d", len(segs[0].Rows), len(segs[1].Rows), len(segs[2].Rows))
	}
	for i, sg := range segs {
		if sg.ID != (ObjectID{Tenant: 3, Table: "tbl", Index: i}) {
			t.Errorf("segment %d id %v", i, sg.ID)
		}
		if sg.NominalBytes != 1<<30 {
			t.Errorf("segment %d size %d", i, sg.NominalBytes)
		}
	}
}

func TestSplitEmptyRelation(t *testing.T) {
	segs := Split(0, "empty", nil, 100, 1)
	if len(segs) != 1 || len(segs[0].Rows) != 0 {
		t.Fatalf("empty relation: %d segs", len(segs))
	}
}

func TestSplitExactMultiple(t *testing.T) {
	segs := Split(0, "t", rows(8), 4, 1)
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2", len(segs))
	}
}

func TestSplitInvalidSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for rowsPerSegment=0")
		}
	}()
	Split(0, "t", rows(1), 0, 1)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	orig := &Segment{
		ID:           ObjectID{Tenant: 2, Table: "lineitem", Index: 17},
		Rows:         rows(25),
		NominalBytes: 1 << 30,
	}
	data, err := orig.EncodeFormat(sch, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(sch, data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", orig, back)
	}
}

func TestDecodeTruncated(t *testing.T) {
	orig := &Segment{ID: ObjectID{Table: "t"}, Rows: rows(3), NominalBytes: 9}
	data, err := orig.EncodeFormat(sch, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := Decode(sch, data[:cut]); err == nil {
			t.Fatalf("truncated at %d accepted", cut)
		}
	}
}

func TestObjectIDString(t *testing.T) {
	id := ObjectID{Tenant: 4, Table: "orders", Index: 12}
	if got := id.String(); got != "t4/orders/0012" {
		t.Fatalf("id string %q", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, tenant uint8, index uint8, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := make([]tuple.Row, int(n)%40)
		for i := range rs {
			rs[i] = tuple.Row{tuple.Int(rng.Int63n(1e9)), tuple.Str(string(rune('a' + rng.Intn(26))))}
		}
		orig := &Segment{
			ID:           ObjectID{Tenant: int(tenant), Table: "tbl", Index: int(index)},
			Rows:         rs,
			NominalBytes: rng.Int63n(1 << 40),
		}
		data, err := orig.EncodeFormat(sch, FormatV2)
		if err != nil {
			return false
		}
		back, err := Decode(sch, data)
		if err != nil {
			return false
		}
		if len(orig.Rows) == 0 {
			// reflect.DeepEqual distinguishes nil from empty slices.
			return back.ID == orig.ID && back.NominalBytes == orig.NominalBytes && len(back.Rows) == 0
		}
		return reflect.DeepEqual(orig, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCorruptTyped(t *testing.T) {
	orig := &Segment{ID: ObjectID{Table: "t"}, Rows: rows(3), NominalBytes: 9}
	data, err := orig.EncodeFormat(sch, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	// Every prefix truncation must fail with ErrCorrupt — and never panic.
	for cut := 0; cut < len(data); cut++ {
		_, err := Decode(sch, data[:cut])
		if err == nil {
			t.Fatalf("truncated at %d accepted", cut)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated at %d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
	// Trailing garbage is corruption too.
	if _, err := Decode(sch, append(append([]byte(nil), data...), 0xAB)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage: %v", err)
	}
}

func TestDecodeRejectsAbsurdTableName(t *testing.T) {
	// Headers: tenant 0, index 0, size 0, then a table-name length just
	// beyond MaxTableName, followed by that many bytes.
	data := append([]byte(nil), magicV2[:]...)
	data = binary.AppendVarint(data, 0)
	data = binary.AppendVarint(data, 0)
	data = binary.AppendVarint(data, 0)
	data = binary.AppendUvarint(data, uint64(MaxTableName+1))
	data = append(data, make([]byte, MaxTableName+1)...)
	_, err := Decode(sch, seal(data))
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "table-name length") {
		t.Fatalf("oversized table name: got %v, want ErrCorrupt naming the table-name length", err)
	}
}

func TestEncodeRejectsLongTableName(t *testing.T) {
	g := &Segment{ID: ObjectID{Table: strings.Repeat("x", MaxTableName+1)}}
	if _, err := g.EncodeFormat(sch, FormatV2); err == nil {
		t.Fatal("overlong table name encoded")
	}
	g.ID.Table = strings.Repeat("x", MaxTableName)
	data, err := g.EncodeFormat(sch, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(sch, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ID.Table != g.ID.Table {
		t.Fatal("max-length table name round trip failed")
	}
}

func TestDecodeFuzzNoPanic(t *testing.T) {
	// Random byte soup must yield errors, not panics — also once sealed
	// with a valid trailer, and behind the magic on every other input, so
	// the header and directory parsers see it too.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		if i%2 == 1 {
			buf = append(append([]byte(nil), magicV2[:]...), buf...)
		}
		checkDecode(t, buf)
		checkDecode(t, seal(buf))
	}
}
