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
// The encoder computes every applicable candidate and keeps the smallest;
// with segment rows in the tens-to-thousands range the extra encode work
// is noise next to the transfer costs the format models. Every decoder
// validates counts and bounds against the remaining input so corrupt
// blocks yield ErrCorrupt, never a panic or an unbounded allocation.

import (
	"encoding/binary"
	"fmt"
	"math"

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

// encodeColumn codes one column's values and returns its directory entry
// (block length filled in) plus the block bytes. Values must all match
// kind; min/max are computed in the same pass.
func encodeColumn(kind tuple.Kind, vals []tuple.Value) (ColumnMeta, []byte, error) {
	meta := ColumnMeta{}
	for i, v := range vals {
		if v.K != kind {
			return meta, nil, fmt.Errorf("segment: column value %d is %v, schema says %v", i, v.K, kind)
		}
		if !meta.HasRange {
			meta.Min, meta.Max, meta.HasRange = v, v, true
			continue
		}
		if tuple.Compare(v, meta.Min) < 0 {
			meta.Min = v
		}
		if tuple.Compare(v, meta.Max) > 0 {
			meta.Max = v
		}
	}
	var block []byte
	switch kind {
	case tuple.KindFloat64:
		meta.Encoding, block = EncRaw, encodeFloatRaw(vals)
	case tuple.KindString:
		meta.Encoding, block = encodeStringBlock(vals)
	default: // int64, date, bool
		meta.Encoding, block = encodeIntBlock(vals)
	}
	meta.BlockLen = len(block)
	return meta, block, nil
}

func encodeFloatRaw(vals []tuple.Value) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.F))
	}
	return out
}

// encodeIntBlock picks the smallest of raw / delta / RLE for an integer
// kind (int64, date, bool — all carried in Value.I).
func encodeIntBlock(vals []tuple.Value) (Encoding, []byte) {
	raw := make([]byte, 0, 8*len(vals))
	var delta []byte
	var rle []byte
	prev := int64(0)
	runVal, runLen := int64(0), 0
	flush := func() {
		if runLen > 0 {
			rle = binary.AppendVarint(rle, runVal)
			rle = binary.AppendUvarint(rle, uint64(runLen))
		}
	}
	for i, v := range vals {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(v.I))
		delta = binary.AppendVarint(delta, v.I-prev)
		prev = v.I
		if i == 0 || v.I != runVal {
			flush()
			runVal, runLen = v.I, 1
		} else {
			runLen++
		}
	}
	flush()
	best, block := EncRaw, raw
	if len(delta) < len(block) {
		best, block = EncDelta, delta
	}
	if len(rle) < len(block) {
		best, block = EncRLE, rle
	}
	return best, block
}

// encodeStringBlock picks dictionary coding when it beats plain
// length-prefixed strings.
func encodeStringBlock(vals []tuple.Value) (Encoding, []byte) {
	var raw []byte
	index := make(map[string]int)
	var entries []string
	var idxBytes []byte
	for _, v := range vals {
		raw = binary.AppendUvarint(raw, uint64(len(v.S)))
		raw = append(raw, v.S...)
		id, ok := index[v.S]
		if !ok {
			id = len(entries)
			index[v.S] = id
			entries = append(entries, v.S)
		}
		idxBytes = binary.AppendUvarint(idxBytes, uint64(id))
	}
	dict := binary.AppendUvarint(nil, uint64(len(entries)))
	for _, s := range entries {
		dict = binary.AppendUvarint(dict, uint64(len(s)))
		dict = append(dict, s...)
	}
	dict = append(dict, idxBytes...)
	if len(dict) < len(raw) {
		return EncDict, dict
	}
	return EncStrRaw, raw
}

// sized returns s resized to n cells, reallocated when too small. A
// corrupt header cannot force a huge allocation here: n is validated
// against MaxSegmentRows before any block is decoded.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// decodeColumn decodes one block straight into dst's typed slice for the
// kind (reused when large enough; the other two are dropped), producing
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
			*dst = tuple.Vector{F: sized(dst.F, n)}
			for i := range dst.F {
				dst.F[i] = math.Float64frombits(binary.LittleEndian.Uint64(block[8*i:]))
			}
		} else {
			*dst = tuple.Vector{I: sized(dst.I, n)}
			for i := range dst.I {
				dst.I[i] = int64(binary.LittleEndian.Uint64(block[8*i:]))
			}
		}
		block = nil
	case EncDelta:
		*dst = tuple.Vector{I: sized(dst.I, n)}
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
		*dst = tuple.Vector{I: sized(dst.I, n)}
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
		dict := make([]string, card)
		for i := range dict {
			var err error
			if dict[i], block, err = decodeString(block); err != nil {
				return fmt.Errorf("dict entry %d: %w", i, err)
			}
		}
		*dst = tuple.Vector{S: sized(dst.S, n)}
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
		*dst = tuple.Vector{S: sized(dst.S, n)}
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
		dst = binary.AppendUvarint(dst, uint64(len(v.S)))
		return append(dst, v.S...)
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
