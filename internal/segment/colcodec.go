package segment

// This file implements the column-block codec behind the v2 segment
// format: each column of a segment is encoded independently with a
// lightweight encoding chosen per column, so a reader holding the column
// directory can decode exactly the columns a query references and skip
// the rest — projection pushdown at the storage format level.
//
// Encodings (one byte in the directory entry):
//
//	EncRaw    fixed 8-byte little-endian payloads. Floats always use it;
//	          integer kinds fall back to it when varint coding would be
//	          larger (random 64-bit values).
//	EncDelta  zigzag-varint first value followed by zigzag-varint deltas.
//	          Wins on sorted or slowly-moving int/date columns (clustered
//	          keys, dates).
//	EncRLE    (zigzag-varint value, uvarint run-length) pairs. Wins when
//	          runs dominate: flags, low-cardinality codes, constant
//	          columns.
//	EncDict   uvarint cardinality, then the dictionary entries
//	          (uvarint length + bytes, first-appearance order), then one
//	          uvarint index per row. Wins on low-cardinality strings.
//	EncStrRaw uvarint length + bytes per value — the high-cardinality
//	          string fallback.
//
// The encoder builds no candidate block: sizeColumn computes the exact
// length of every applicable encoding, appendColumn writes only the winner
// into the one buffer sized for the whole object. Every decoder validates
// counts and bounds against the remaining input so corrupt blocks yield
// ErrCorrupt, never a panic or an unbounded allocation.

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"

	"repro/internal/tuple"
)

// Encoding identifies how one column block is coded.
type Encoding uint8

const (
	// EncRaw is fixed 8-byte little-endian payloads.
	EncRaw Encoding = iota
	// EncDelta is zigzag-varint first value plus zigzag-varint deltas.
	EncDelta
	// EncRLE is (zigzag-varint value, uvarint run-length) pairs.
	EncRLE
	// EncDict is a string dictionary plus per-row uvarint indexes.
	EncDict
	// EncStrRaw is uvarint-length-prefixed bytes per string value.
	EncStrRaw
)

// String returns the encoding's short name.
func (e Encoding) String() string {
	switch e {
	case EncRaw:
		return "raw"
	case EncDelta:
		return "delta"
	case EncRLE:
		return "rle"
	case EncDict:
		return "dict"
	case EncStrRaw:
		return "str-raw"
	default:
		return fmt.Sprintf("Encoding(%d)", uint8(e))
	}
}

// ColumnMeta is one column directory entry of a v2 segment: how the
// column's block is encoded and where it sits, plus the zone-map
// statistics (min/max/null count) computed at encode time — so catalog
// statistics can be read straight from the directory without decoding a
// single block.
type ColumnMeta struct {
	// Encoding identifies the block codec.
	Encoding Encoding
	// BlockLen is the encoded block's byte length; block offsets are the
	// cumulative sums of the preceding lengths.
	BlockLen int
	// Nulls counts NULL values (always zero in this engine; persisted so
	// the directory matches what a real system would store).
	Nulls int64
	// HasRange reports whether Min/Max are meaningful (false only for
	// empty segments).
	HasRange bool
	// Min and Max bound the column's values in the segment.
	Min, Max tuple.Value
}

// uvarintLen, varintLen and stringLen are the lengths that
// binary.AppendUvarint, binary.AppendVarint and appendString write.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
func varintLen(x int64) int   { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }
func stringLen(s string) int  { return uvarintLen(uint64(len(s))) + len(s) }

// appendString appends s as a uvarint length plus its bytes.
func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// dictionary numbers the distinct strings of a column by first appearance.
// It is an open-addressing table over the strings in place: slots holds
// id+1 (0 when empty), first each id's first row — 12 to 24 bytes a row
// however many strings are distinct.
type dictionary struct{ slots, first []int32 }

var dictSeed = maphash.MakeSeed()

// reset empties d for a column of n rows, with at least 2n slots, drawn
// from the working-memory pool.
func (d *dictionary) reset(n int) {
	if size := 2 << bits.Len(uint(max(n, 1)-1)); len(d.slots) < size {
		d.slots, d.first = tuple.Resize(d.slots, size), tuple.Resize(d.first, size/2)
	}
	clear(d.slots)
	d.first = d.first[:0]
}

// id returns the id of column ci's string in row r, numbering it if new.
func (d *dictionary) id(rows []tuple.Row, ci, r int) int {
	s, mask := rows[r][ci].S, len(d.slots)-1
	for i := int(maphash.String(dictSeed, s)) & mask; ; i = (i + 1) & mask {
		if d.slots[i] == 0 {
			d.first = append(d.first, int32(r))
			d.slots[i] = int32(len(d.first))
		}
		if id := int(d.slots[i] - 1); rows[d.first[id]][ci].S == s {
			return id
		}
	}
}

// sizeColumn is the encoder's first pass over column ci: it checks every
// cell's kind, computes the zone map and the exact length of each
// applicable encoding, and returns the directory entry of the smallest.
// A tie keeps the earlier candidate: raw, delta, RLE for the integer kinds;
// str-raw, dict for strings. Floats are always raw.
func sizeColumn(rows []tuple.Row, ci int, kind tuple.Kind, dict *dictionary) (ColumnMeta, error) {
	meta := ColumnMeta{Encoding: EncRaw, BlockLen: 8 * len(rows)}
	for i, r := range rows {
		switch v := r[ci]; {
		case v.K != kind:
			return meta, fmt.Errorf("segment: column value %d is %v, schema says %v", i, v.K, kind)
		case !meta.HasRange:
			meta.Min, meta.Max, meta.HasRange = v, v, true
		case tuple.Compare(v, meta.Min) < 0:
			meta.Min = v
		case tuple.Compare(v, meta.Max) > 0:
			meta.Max = v
		}
	}
	pick := func(enc Encoding, n int) {
		if n < meta.BlockLen {
			meta.Encoding, meta.BlockLen = enc, n
		}
	}
	switch {
	case kind == tuple.KindString:
		raw, dictLen := 0, 0
		dict.reset(len(rows))
		for r := range rows {
			raw += stringLen(rows[r][ci].S)
			dictLen += uvarintLen(uint64(dict.id(rows, ci, r)))
		}
		dictLen += uvarintLen(uint64(len(dict.first)))
		for _, r := range dict.first {
			dictLen += stringLen(rows[r][ci].S)
		}
		meta.Encoding, meta.BlockLen = EncStrRaw, raw
		pick(EncDict, dictLen)
	case kind != tuple.KindFloat64: // int64, date, bool
		delta, rle, prev, start := 0, 0, int64(0), 0
		for i, r := range rows {
			delta, prev = delta+varintLen(r[ci].I-prev), r[ci].I
			if i+1 == len(rows) || rows[i+1][ci].I != prev { // a run ends
				rle, start = rle+varintLen(prev)+uvarintLen(uint64(i+1-start)), i+1
			}
		}
		pick(EncDelta, delta)
		pick(EncRLE, rle)
	}
	return meta, nil
}

// appendColumn is the encoder's second pass: it appends column ci's block
// in enc, the encoding sizeColumn chose.
func appendColumn(out []byte, rows []tuple.Row, ci int, kind tuple.Kind, enc Encoding, dict *dictionary) []byte {
	switch enc {
	case EncRaw:
		for _, r := range rows {
			u := uint64(r[ci].I)
			if kind == tuple.KindFloat64 {
				u = math.Float64bits(r[ci].F)
			}
			out = binary.LittleEndian.AppendUint64(out, u)
		}
	case EncDelta:
		prev := int64(0)
		for _, r := range rows {
			out, prev = binary.AppendVarint(out, r[ci].I-prev), r[ci].I
		}
	case EncRLE:
		start := 0
		for i, r := range rows {
			if i+1 == len(rows) || rows[i+1][ci].I != r[ci].I {
				out, start = binary.AppendUvarint(binary.AppendVarint(out, r[ci].I), uint64(i+1-start)), i+1
			}
		}
	case EncStrRaw:
		for _, r := range rows {
			out = appendString(out, r[ci].S)
		}
	case EncDict:
		dict.reset(len(rows))
		for r := range rows {
			dict.id(rows, ci, r)
		}
		out = binary.AppendUvarint(out, uint64(len(dict.first)))
		for _, r := range dict.first {
			out = appendString(out, rows[r][ci].S)
		}
		for r := range rows {
			out = binary.AppendUvarint(out, uint64(dict.id(rows, ci, r)))
		}
	}
	return out
}

// decodeColumn decodes one block straight into dst's typed slice for the
// kind (tuple.Resize; the other two are dropped; n is validated against
// MaxSegmentRows before any block is decoded), producing
// exactly n cells. Any structural problem — wrong encoding for the kind,
// truncation, counts that do not add up, trailing bytes — returns an error
// (wrapped into ErrCorrupt by the caller).
func decodeColumn(kind tuple.Kind, enc Encoding, block []byte, n int, dst *tuple.Vector) error {
	if isString := kind == tuple.KindString; isString != (enc == EncDict || enc == EncStrRaw) ||
		kind == tuple.KindFloat64 && enc != EncRaw {
		return fmt.Errorf("%v block for %v column", enc, kind)
	}
	switch enc {
	case EncRaw:
		if len(block) != 8*n {
			return fmt.Errorf("raw block is %d bytes, want %d", len(block), 8*n)
		}
		if kind == tuple.KindFloat64 {
			*dst = tuple.Vector{F: tuple.Resize(dst.F, n)}
			for i := range dst.F {
				dst.F[i] = math.Float64frombits(binary.LittleEndian.Uint64(block[8*i:]))
			}
		} else {
			*dst = tuple.Vector{I: tuple.Resize(dst.I, n)}
			for i := range dst.I {
				dst.I[i] = int64(binary.LittleEndian.Uint64(block[8*i:]))
			}
		}
		block = nil
	case EncDelta:
		*dst = tuple.Vector{I: tuple.Resize(dst.I, n)}
		cur := int64(0)
		for i := range dst.I {
			d, sz := binary.Varint(block)
			if sz <= 0 {
				return fmt.Errorf("truncated delta at value %d", i)
			}
			block = block[sz:]
			cur += d
			dst.I[i] = cur
		}
	case EncRLE:
		*dst = tuple.Vector{I: tuple.Resize(dst.I, n)}
		for at := 0; at < n; {
			v, sz := binary.Varint(block)
			if sz <= 0 {
				return fmt.Errorf("truncated rle value at row %d", at)
			}
			block = block[sz:]
			run, sz := binary.Uvarint(block)
			if sz <= 0 {
				return fmt.Errorf("truncated rle run at row %d", at)
			}
			block = block[sz:]
			if run == 0 || run > uint64(n-at) {
				return fmt.Errorf("rle run of %d at row %d overflows %d rows", run, at, n)
			}
			for _, end := at, at+int(run); at < end; at++ {
				dst.I[at] = v
			}
		}
	case EncDict:
		card, sz := binary.Uvarint(block)
		if sz <= 0 {
			return fmt.Errorf("truncated dict cardinality")
		}
		block = block[sz:]
		if card > uint64(n) {
			return fmt.Errorf("dict cardinality %d exceeds %d rows", card, n)
		}
		// The entries are validated, then the section they span becomes one
		// string and each entry a substring of it: one allocation a block.
		section := block
		for i := range card {
			ln, sz := binary.Uvarint(block)
			if sz <= 0 {
				return fmt.Errorf("dict entry %d: truncated length", i)
			}
			if uint64(len(block)-sz) < ln {
				return fmt.Errorf("dict entry %d: length %d exceeds %d remaining bytes", i, ln, len(block)-sz)
			}
			block = block[sz+int(ln):]
		}
		all, dict := string(section[:len(section)-len(block)]), tuple.Take[string](int(card))
		defer tuple.Release(dict)
		for i, at := 0, 0; i < len(dict); i++ {
			ln, sz := binary.Uvarint(section[at:])
			at += sz
			dict[i], at = all[at:at+int(ln)], at+int(ln)
		}
		*dst = tuple.Vector{S: tuple.Resize(dst.S, n)}
		for i := range dst.S {
			id, sz := binary.Uvarint(block)
			if sz <= 0 {
				return fmt.Errorf("truncated dict index at row %d", i)
			}
			if id >= card {
				return fmt.Errorf("dict index %d out of %d at row %d", id, card, i)
			}
			block = block[sz:]
			dst.S[i] = dict[id]
		}
	case EncStrRaw:
		*dst = tuple.Vector{S: tuple.Resize(dst.S, n)}
		for i := range dst.S {
			var err error
			if dst.S[i], block, err = decodeString(block); err != nil {
				return fmt.Errorf("string at row %d: %w", i, err)
			}
		}
	default:
		return fmt.Errorf("unknown encoding %d", enc)
	}
	if len(block) != 0 {
		return fmt.Errorf("%d trailing bytes after %v block", len(block), enc)
	}
	return nil
}

// decodeString reads one uvarint-length-prefixed string, bounds-checked
// against the remaining input.
func decodeString(data []byte) (string, []byte, error) {
	ln, sz := binary.Uvarint(data)
	if sz <= 0 {
		return "", data, fmt.Errorf("truncated length")
	}
	if uint64(len(data)-sz) < ln {
		return "", data, fmt.Errorf("length %d exceeds %d remaining bytes", ln, len(data)-sz)
	}
	return string(data[sz : sz+int(ln)]), data[sz+int(ln):], nil
}

// appendDirValue appends a zone-map bound in the directory's value
// encoding: zigzag varint for integer kinds, 8-byte LE for floats,
// length-prefixed bytes for strings.
func appendDirValue(dst []byte, kind tuple.Kind, v tuple.Value) []byte {
	switch kind {
	case tuple.KindFloat64:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
	case tuple.KindString:
		return appendString(dst, v.S)
	default:
		return binary.AppendVarint(dst, v.I)
	}
}

// decodeDirValue reads one zone-map bound.
func decodeDirValue(data []byte, kind tuple.Kind) (tuple.Value, []byte, error) {
	switch kind {
	case tuple.KindFloat64:
		if len(data) < 8 {
			return tuple.Value{}, data, fmt.Errorf("truncated float bound")
		}
		return tuple.Value{K: kind, F: math.Float64frombits(binary.LittleEndian.Uint64(data))}, data[8:], nil
	case tuple.KindString:
		s, rest, err := decodeString(data)
		if err != nil {
			return tuple.Value{}, data, fmt.Errorf("string bound: %w", err)
		}
		return tuple.Value{K: kind, S: s}, rest, nil
	default:
		v, sz := binary.Varint(data)
		if sz <= 0 {
			return tuple.Value{}, data, fmt.Errorf("truncated int bound")
		}
		return tuple.Value{K: kind, I: v}, data[sz:], nil
	}
}
