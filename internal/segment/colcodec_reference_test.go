package segment

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/tuple"
)

// The reference v2 encoder: the straightforward form of the column codec,
// which transposes each column into a []tuple.Value, builds every
// candidate block and keeps the smallest. The production encoder
// (encodeV2: sizeColumn, then appendColumn) sizes the candidates instead
// and writes only the winner. TestEncodeV2MatchesReference (in the
// external test package, which can import the generators) and
// FuzzEncodeV2 hold the two to identical bytes.

// referenceEncodeV2 is EncodeFormat(schema, FormatV2) built from the
// reference column encoder. Only the header and the checksum trailer are
// written by the production code.
func referenceEncodeV2(g *Segment, schema *tuple.Schema) ([]byte, error) {
	if len(g.Rows) > MaxSegmentRows {
		return nil, fmt.Errorf("segment %v: %d rows exceed MaxSegmentRows %d", g.ID, len(g.Rows), MaxSegmentRows)
	}
	for _, r := range g.Rows {
		if len(r) != schema.Len() {
			return nil, fmt.Errorf("segment %v: row arity %d != schema arity %d", g.ID, len(r), schema.Len())
		}
	}
	out := append([]byte(nil), magicV2[:]...)
	out = g.appendHeader(out)
	out = binary.AppendUvarint(out, uint64(len(g.Rows)))
	out = binary.AppendUvarint(out, uint64(schema.Len()))
	colVals := make([]tuple.Value, len(g.Rows))
	var blocks []byte
	for ci, col := range schema.Cols {
		for ri, r := range g.Rows {
			colVals[ri] = r[ci]
		}
		meta, block, err := refEncodeColumn(col.Kind, colVals)
		if err != nil {
			return nil, fmt.Errorf("segment %v: column %q: %w", g.ID, col.Name, err)
		}
		out = append(out, byte(meta.Encoding))
		out = binary.AppendUvarint(out, uint64(meta.BlockLen))
		out = binary.AppendUvarint(out, uint64(meta.Nulls))
		if meta.HasRange {
			out = append(out, 1)
			out = refAppendDirValue(out, col.Kind, meta.Min)
			out = refAppendDirValue(out, col.Kind, meta.Max)
		} else {
			out = append(out, 0)
		}
		blocks = append(blocks, block...)
	}
	return appendChecksum(append(out, blocks...)), nil
}

// ReferenceEncodeV2 exposes the reference encoder to the external test
// package.
var ReferenceEncodeV2 = referenceEncodeV2

// refAppendDirValue appends a zone-map bound: zigzag varint for integer
// kinds, 8-byte LE for floats, length-prefixed bytes for strings.
func refAppendDirValue(dst []byte, kind tuple.Kind, v tuple.Value) []byte {
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

// refEncodeColumn codes one column's values and returns its directory
// entry (block length filled in) plus the block bytes. Values must all
// match kind; min/max are computed in the same pass.
func refEncodeColumn(kind tuple.Kind, vals []tuple.Value) (ColumnMeta, []byte, error) {
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
		meta.Encoding, block = EncRaw, refEncodeFloatRaw(vals)
	case tuple.KindString:
		meta.Encoding, block = refEncodeStringBlock(vals)
	default: // int64, date, bool
		meta.Encoding, block = refEncodeIntBlock(vals)
	}
	meta.BlockLen = len(block)
	return meta, block, nil
}

func refEncodeFloatRaw(vals []tuple.Value) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v.F))
	}
	return out
}

// refEncodeIntBlock picks the smallest of raw / delta / RLE for an integer
// kind (int64, date, bool — all carried in Value.I).
func refEncodeIntBlock(vals []tuple.Value) (Encoding, []byte) {
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

// refEncodeStringBlock picks dictionary coding when it beats plain
// length-prefixed strings.
func refEncodeStringBlock(vals []tuple.Value) (Encoding, []byte) {
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
