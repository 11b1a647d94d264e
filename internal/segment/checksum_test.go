package segment

import (
	"errors"
	"strings"
	"testing"
)

// seal returns a copy of b with a valid checksum trailer appended, so a
// crafted buffer reaches the check it was built for instead of stopping
// at the trailer.
func seal(b []byte) []byte { return appendChecksum(append([]byte(nil), b...)) }

// Encode output must end in a verifying checksum trailer, and DecodeLazy
// must verify it.
func TestChecksumRoundTrip(t *testing.T) {
	orig := &Segment{ID: ObjectID{Tenant: 1, Table: "t", Index: 2}, Rows: rows(5), NominalBytes: 64}
	data, err := orig.EncodeFormat(sch, FormatV2)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	g, err := DecodeLazy(sch, data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := g.VerifyChecksum(); err != nil {
		t.Fatalf("clean segment failed verification: %v", err)
	}
}

// A flipped wire byte must be caught at decode time with ErrCorrupt.
func TestChecksumCatchesWireFlip(t *testing.T) {
	orig := &Segment{ID: ObjectID{Table: "t"}, Rows: rows(8), NominalBytes: 64}
	data, err := orig.EncodeFormat(sch, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{0, len(data) / 2, len(data) - 9} {
		mut := append([]byte(nil), data...)
		mut[at] ^= 0x01
		if _, err := DecodeLazy(sch, mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: got %v, want ErrCorrupt", at, err)
		}
	}
}

// TestDecodeRequiresChecksum: an object with its 8-byte trailer stripped
// is corrupt, not an older kind of object — nothing is ever stored
// without one.
func TestDecodeRequiresChecksum(t *testing.T) {
	orig := &Segment{ID: ObjectID{Tenant: 3, Table: "t", Index: 1}, Rows: rows(4), NominalBytes: 32}
	data, err := orig.EncodeFormat(sch, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeLazy(sch, data[:len(data)-8])
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "missing checksum trailer") {
		t.Fatalf("trailer stripped: got %v, want ErrCorrupt naming the missing trailer", err)
	}
}

// CorruptedCopy must fail verification while leaving the original
// segment intact — the fault injector's bit-rot model.
func TestCorruptedCopy(t *testing.T) {
	orig := &Segment{ID: ObjectID{Table: "t"}, Rows: rows(6), NominalBytes: 64}
	data, err := orig.EncodeFormat(sch, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecodeLazy(sch, data)
	if err != nil {
		t.Fatal(err)
	}
	bad := g.CorruptedCopy()
	if bad == nil {
		t.Fatal("CorruptedCopy returned nil for an encoded segment")
	}
	if err := bad.VerifyChecksum(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted copy verified: %v", err)
	}
	if err := g.VerifyChecksum(); err != nil {
		t.Fatalf("original damaged by CorruptedCopy: %v", err)
	}
	if bad.ID != g.ID || bad.NumRows() != g.NumRows() {
		t.Fatal("corrupted copy changed identity")
	}
}

// In-memory segments cannot carry detectable corruption.
func TestCorruptedCopyMemSegment(t *testing.T) {
	g := &Segment{ID: ObjectID{Table: "t"}, Rows: rows(3), NominalBytes: 8}
	if c := g.CorruptedCopy(); c != nil {
		t.Fatalf("mem segment produced a corrupted copy")
	}
	if err := g.VerifyChecksum(); err != nil {
		t.Fatalf("mem segment failed trivial verification: %v", err)
	}
}

// A zero-row segment still round-trips with a checksum and still yields
// a detectable corrupted copy (the flip lands in the header).
func TestChecksumEmptySegment(t *testing.T) {
	orig := &Segment{ID: ObjectID{Table: "t"}, NominalBytes: 8}
	data, err := orig.EncodeFormat(sch, FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecodeLazy(sch, data)
	if err != nil {
		t.Fatal(err)
	}
	bad := g.CorruptedCopy()
	if bad == nil {
		t.Fatal("no corrupted copy for empty segment")
	}
	if err := bad.VerifyChecksum(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty corrupted copy verified: %v", err)
	}
}
