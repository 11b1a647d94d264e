// Package segment defines the object format used to store relation data in
// the cold storage device: a relation is split into fixed-size segments,
// each stored as one CSD object (the paper uses 1 GB PostgreSQL segments
// stored as Swift objects, one container per relation).
//
// An object has one wire format, FormatV2, which is columnar: the header
// carries a column directory (per-column encoding, block length, min/max
// and null count) followed by independently decodable column blocks (see
// colcodec.go), so a reader can decode exactly the columns a query
// references — projection pushdown at the storage layer — and read zone
// maps without touching a block. Every object ends in a CRC32C trailer,
// and every decode verifies it.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"repro/internal/tuple"
)

// ErrCorrupt tags every Decode failure on malformed input; callers
// distinguish corruption from other failures with
// errors.Is(err, segment.ErrCorrupt).
var ErrCorrupt = errors.New("corrupt segment")

// MaxTableName bounds the header's table-name length. Relation names are
// short identifiers; a longer length in the header means the buffer is
// corrupt, and validating it keeps Decode from treating arbitrary bytes
// as a name.
const MaxTableName = 255

// MaxSegmentRows bounds the row count a v2 header may claim. The emulator
// stores tens to thousands of tuples per object; a larger count means the
// header is corrupt, and rejecting it up front keeps run-length decoders
// from being talked into gigantic allocations by two bytes of input.
const MaxSegmentRows = 1 << 20

// Format selects the segment wire format. FormatV2 is the only one: a
// device serves nothing but encoded objects, and EncodeFormat refuses any
// other value.
type Format uint8

// FormatV2 is the columnar wire format: header + column directory +
// independently decodable column blocks + checksum trailer.
const FormatV2 Format = 2

// String returns the format's short name ("v2").
func (f Format) String() string {
	if f == FormatV2 {
		return "v2"
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

// magicV2 opens every encoded object; a buffer that does not start with it
// is not a segment.
var magicV2 = [4]byte{0xC5, 'S', 'G', '2'}

// magicCRC opens the 8-byte checksum trailer every encoded object ends
// in: 4 magic bytes followed by the little-endian CRC32C (Castagnoli) of
// every preceding byte. A buffer whose trailer lacks the magic was cut
// short or is not a segment, and is rejected as corrupt.
var magicCRC = [4]byte{0xC7, 'C', 'R', 'C'}

// castagnoli is the CRC32C polynomial table — the storage-industry
// checksum (iSCSI, ext4, Snappy framing), hardware-accelerated on
// amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendChecksum seals an encoded buffer with the checksum trailer.
func appendChecksum(out []byte) []byte {
	sum := crc32.Checksum(out, castagnoli)
	out = append(out, magicCRC[:]...)
	return binary.LittleEndian.AppendUint32(out, sum)
}

// splitChecksum strips the checksum trailer and verifies it.
func splitChecksum(data []byte) (body []byte, sum uint32, err error) {
	n := len(data)
	if n < 8 || [4]byte(data[n-8:n-4]) != magicCRC {
		return nil, 0, fmt.Errorf("segment: missing checksum trailer: %w", ErrCorrupt)
	}
	body, sum = data[:n-8], binary.LittleEndian.Uint32(data[n-4:])
	if got := crc32.Checksum(body, castagnoli); got != sum {
		return nil, 0, fmt.Errorf("segment: checksum mismatch (stored %08x, computed %08x): %w", sum, got, ErrCorrupt)
	}
	return body, sum, nil
}

// ObjectID names one stored object: a tenant (database client), a relation
// (container) and a segment index within the relation.
type ObjectID struct {
	Tenant int
	Table  string
	Index  int
}

// String renders the id as "t<tenant>/<table>/<index>", the form used in
// traces and error messages.
func (id ObjectID) String() string {
	return fmt.Sprintf("t%d/%s/%04d", id.Tenant, id.Table, id.Index)
}

// payload is the retained wire form of a lazily decoded segment: enough
// directory state to decode individual column blocks on demand.
type payload struct {
	rows int
	size int64  // total encoded size, header and checksum trailer included
	body []byte // the concatenated column blocks
	dir  []ColumnMeta

	// raw is the full encoded buffer minus the checksum trailer (body
	// aliases its tail); crc is the trailer's stored checksum.
	raw []byte
	crc uint32
	// verified (atomic) caches a successful VerifyChecksum: the payload
	// bytes are immutable after decode, so one clean recompute covers
	// every later delivery of the same segment. Atomic because the server
	// shares decoded segments across concurrently running query sims.
	verified uint32
}

// Segment is the in-memory form of one object. Rows carries the actual
// tuples so joins compute real results; NominalBytes carries the
// paper-scale size (1 GB) so timing matches the paper. A segment produced
// by DecodeLazy holds its encoded payload instead of Rows, and serves
// columns on demand through DecodeColumns — that is what makes scan-side
// projection pushdown real.
type Segment struct {
	ID           ObjectID
	Rows         []tuple.Row
	NominalBytes int64

	payload *payload
	// memo, when non-nil, keeps the columns decoded from the payload
	// (Memoize).
	memo *memo
}

// memo keeps the columns decoded from one lazy segment: each is decoded
// the first time a reader projects it, into a vector of the memo's own, and
// handed to every reader after that as a read-only view. mu serializes the
// fills, so concurrent readers of one segment decode each column once.
type memo struct {
	mu      sync.Mutex
	cols    []tuple.Vector // one per schema column
	done    []bool         // done[ci]: cols[ci] is filled
	bytes   int64          // logical size of the filled columns
	leases  int            // readers that may hold views of cols
	retired bool           // the owner dropped the segment
}

// lease adds delta to the memo's leases and, with retire, retires it. A
// retired memo with no lease out returns its vectors to the working-memory
// pool and starts empty.
func (mo *memo) lease(delta int, retire bool) {
	mo.mu.Lock()
	defer mo.mu.Unlock()
	if mo.leases += delta; mo.leases < 0 {
		panic("segment: Unlease without a lease out")
	}
	if mo.retired = mo.retired || retire; !mo.retired || mo.leases > 0 {
		return
	}
	for _, v := range mo.cols {
		tuple.Release(v.I)
		tuple.Release(v.F)
		tuple.Release(v.S)
	}
	clear(mo.cols)
	clear(mo.done)
	mo.bytes = 0
}

// Memoize returns a copy of a lazy segment that keeps the columns decoded
// from it. The first DecodeColumns through the copy that projects a column
// decodes it into the memo; every later one, by any reader, is handed the
// memo's vector as a read-only view (ColumnData.Views) and counts no bytes
// decoded. The segment cache memoizes what it admits, so decoded columns
// stay with the entry and, once it is evicted, go back to the pool when its
// last lease ends (Lease, Retire). An in-memory segment has nothing to
// decode and is returned as it is.
func (g *Segment) Memoize() *Segment {
	if g.payload == nil {
		return g
	}
	m := &struct {
		seg  Segment
		memo memo
	}{seg: *g}
	m.seg.memo = &m.memo
	return &m.seg
}

// Memoized reports whether the segment keeps its decoded columns
// (Memoize): its decodes hand out read-only views.
func (g *Segment) Memoized() bool { return g.memo != nil }

// MemoBytes returns the logical size (8 bytes per numeric, the payload
// length per string) of the columns a memoized segment has decoded so far;
// 0 for any other segment.
func (g *Segment) MemoBytes() int64 {
	if g.memo == nil {
		return 0
	}
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	return g.memo.bytes
}

// Lease marks, until Unlease, a reader that may read views of a memoized
// segment's columns while its owner can drop it (Retire); it leases before
// its first decode. Lease reports whether the segment is memoized: no other
// segment hands out views.
func (g *Segment) Lease() bool {
	if g.memo != nil {
		g.memo.lease(1, false)
	}
	return g.memo != nil
}

// Unlease ends a lease; the last one out of a retired memo returns its
// vectors to the working-memory pool. With no lease out it panics.
func (g *Segment) Unlease() { g.memo.lease(-1, false) }

// Leases returns how many leases are out on a memoized segment; 0 for any
// other segment.
func (g *Segment) Leases() int {
	if g.memo == nil {
		return 0
	}
	g.memo.mu.Lock()
	defer g.memo.mu.Unlock()
	return g.memo.leases
}

// Retire tells a memoized segment that its owner, the segment cache,
// dropped it: once no lease is out its memo returns its vectors to the
// working-memory pool and starts empty. A later reader fills it again, and
// the last lease out returns those vectors too.
func (g *Segment) Retire() {
	if g.memo != nil {
		g.memo.lease(0, true)
	}
}

// Lazy reports whether the segment holds an encoded payload to be decoded
// at access time (DecodeLazy output) rather than materialized Rows.
func (g *Segment) Lazy() bool { return g.payload != nil }

// NumRows returns the segment's row count without materializing anything.
func (g *Segment) NumRows() int {
	if g.payload != nil {
		return g.payload.rows
	}
	return len(g.Rows)
}

// EncodedSize returns the total encoded byte size of a lazy segment
// (header, directory and blocks), or 0 for in-memory segments.
func (g *Segment) EncodedSize() int64 {
	if g.payload == nil {
		return 0
	}
	return g.payload.size
}

// Directory returns the column directory of a lazy segment (aligned with
// the schema's columns), or nil for an in-memory one. The entries carry
// the per-column zone maps, so statistics collection reads min/max and
// null counts without decoding a block.
func (g *Segment) Directory() []ColumnMeta {
	if g.payload == nil {
		return nil
	}
	return g.payload.dir
}

// VerifyChecksum recomputes the CRC32C of a lazy segment's encoded bytes
// and compares it against the stored trailer, returning an ErrCorrupt
// error on mismatch. In-memory segments carry no checksum and verify
// trivially. This is the end-to-end integrity check the client proxy runs
// on every delivery: the decode path verifies the wire buffer once, and
// VerifyChecksum catches any corruption of the retained payload after
// that — which is exactly how the fault injector models a device flipping
// bits in flight.
func (g *Segment) VerifyChecksum() error {
	p := g.payload
	if p == nil {
		return nil
	}
	if atomic.LoadUint32(&p.verified) == 1 {
		return nil
	}
	if got := crc32.Checksum(p.raw, castagnoli); got != p.crc {
		return fmt.Errorf("segment %v: checksum mismatch (stored %08x, computed %08x): %w", g.ID, p.crc, got, ErrCorrupt)
	}
	atomic.StoreUint32(&p.verified, 1)
	return nil
}

// CorruptedCopy returns a copy of a lazy segment with one payload bit
// flipped and the original checksum retained, so VerifyChecksum on the
// copy fails while the original stays intact. The fault injector serves
// these to model bit rot in flight. Returns nil for an in-memory segment,
// which carries no checksum — the injector then degrades the fault to a
// transient failure instead. The copy keeps no memo: its columns decode, and
// fail, from its own bytes.
func (g *Segment) CorruptedCopy() *Segment {
	p := g.payload
	if p == nil {
		return nil
	}
	raw := append([]byte(nil), p.raw...)
	// Flip mid-body where possible so headers still parse; an empty body
	// (zero rows) falls back to the last header byte.
	at := len(raw) - 1
	if len(p.body) > 0 {
		at = len(raw) - len(p.body) + len(p.body)/2
	}
	raw[at] ^= 0x40
	// Field-by-field copy: the verified flag must not be read (other
	// goroutines store it atomically) and must start unset on the copy.
	np := payload{rows: p.rows, size: p.size, dir: p.dir,
		raw: raw, body: raw[len(raw)-len(p.body):], crc: p.crc}
	c := *g
	c.payload, c.memo = &np, nil
	return &c
}

// EncodeFormat serializes the segment in the given wire format. The
// schema is not stored; it is catalog metadata, as in the paper's setup
// where only catalog files live in the VM image. A lazily decoded segment
// holds a payload, not Rows, and is refused.
func (g *Segment) EncodeFormat(schema *tuple.Schema, f Format) ([]byte, error) {
	if g.payload != nil {
		return nil, fmt.Errorf("segment %v: EncodeFormat on a lazily decoded segment", g.ID)
	}
	if len(g.ID.Table) > MaxTableName {
		return nil, fmt.Errorf("segment %v: table name %d bytes long, limit %d", g.ID, len(g.ID.Table), MaxTableName)
	}
	if g.NominalBytes < 0 {
		return nil, fmt.Errorf("segment %v: negative nominal size %d", g.ID, g.NominalBytes)
	}
	if f != FormatV2 {
		return nil, fmt.Errorf("segment %v: cannot encode format %v", g.ID, f)
	}
	out, err := g.encodeV2(schema)
	if err != nil {
		return nil, err
	}
	return appendChecksum(out), nil
}

// appendHeader writes the header fields that follow the magic: tenant,
// index, nominal size and table name.
func (g *Segment) appendHeader(out []byte) []byte {
	out = binary.AppendVarint(out, int64(g.ID.Tenant))
	out = binary.AppendVarint(out, int64(g.ID.Index))
	out = binary.AppendVarint(out, g.NominalBytes)
	out = binary.AppendUvarint(out, uint64(len(g.ID.Table)))
	return append(out, g.ID.Table...)
}

// encodeV2 lays out the columnar format, sizing every column first
// (sizeColumn) so the payload is allocated once, at its final length:
//
//	magic "0xC5 S G 2"
//	tenant, index, nominalBytes (varint), table name (uvarint len + bytes)
//	row count, column count (uvarint)
//	per column: encoding (byte), block length (uvarint), null count
//	            (uvarint), has-range (byte), [min, max]
//	column blocks, back to back in schema order
//
// The header and directory wait for that allocation in a stack buffer.
func (g *Segment) encodeV2(schema *tuple.Schema) ([]byte, error) {
	if len(g.Rows) > MaxSegmentRows {
		return nil, fmt.Errorf("segment %v: %d rows exceed MaxSegmentRows %d", g.ID, len(g.Rows), MaxSegmentRows)
	}
	for _, r := range g.Rows {
		if len(r) != schema.Len() {
			return nil, fmt.Errorf("segment %v: row arity %d != schema arity %d", g.ID, len(r), schema.Len())
		}
	}
	out := append(make([]byte, 0, 256), magicV2[:]...)
	out = g.appendHeader(out)
	out = binary.AppendUvarint(out, uint64(len(g.Rows)))
	out = binary.AppendUvarint(out, uint64(schema.Len()))
	encs, blocks := make([]Encoding, schema.Len()), 0
	var dict dictionary
	defer func() { tuple.Release(dict.slots); tuple.Release(dict.first) }()
	for ci, col := range schema.Cols {
		meta, err := sizeColumn(g.Rows, ci, col.Kind, &dict)
		if err != nil {
			return nil, fmt.Errorf("segment %v: column %q: %w", g.ID, col.Name, err)
		}
		out = append(out, byte(meta.Encoding))
		out = binary.AppendUvarint(out, uint64(meta.BlockLen))
		out = binary.AppendUvarint(out, uint64(meta.Nulls))
		if meta.HasRange {
			out = append(out, 1)
			out = appendDirValue(out, col.Kind, meta.Min)
			out = appendDirValue(out, col.Kind, meta.Max)
		} else {
			out = append(out, 0)
		}
		encs[ci], blocks = meta.Encoding, blocks+meta.BlockLen
	}
	data := append(make([]byte, 0, len(out)+blocks+8), out...) // 8: the checksum trailer
	for ci, col := range schema.Cols {
		data = appendColumn(data, g.Rows, ci, col.Kind, encs[ci], &dict)
	}
	return data, nil
}

// Decode parses a segment previously produced by EncodeFormat,
// materializing every row. Malformed input yields an error wrapping
// ErrCorrupt; Decode never panics on short buffers.
func Decode(schema *tuple.Schema, data []byte) (*Segment, error) {
	g, err := DecodeLazy(schema, data)
	if err != nil {
		return nil, err
	}
	rows, err := g.Materialize(schema)
	if err != nil {
		return nil, err
	}
	g.Rows, g.payload = rows, nil
	return g, nil
}

// decodeHeader parses the header fields that follow the magic, returning
// the segment shell and the remaining bytes.
func decodeHeader(data []byte) (*Segment, []byte, error) {
	g := &Segment{}
	v, n := binary.Varint(data)
	if n <= 0 {
		return nil, nil, fmt.Errorf("segment: bad tenant header: %w", ErrCorrupt)
	}
	g.ID.Tenant = int(v)
	data = data[n:]
	v, n = binary.Varint(data)
	if n <= 0 {
		return nil, nil, fmt.Errorf("segment: bad index header: %w", ErrCorrupt)
	}
	g.ID.Index = int(v)
	data = data[n:]
	g.NominalBytes, n = binary.Varint(data)
	if n <= 0 {
		return nil, nil, fmt.Errorf("segment: bad size header: %w", ErrCorrupt)
	}
	if g.NominalBytes < 0 {
		// A negative nominal size would corrupt the virtual-time transfer
		// model (negative sleep durations panic downstream).
		return nil, nil, fmt.Errorf("segment: negative nominal size %d: %w", g.NominalBytes, ErrCorrupt)
	}
	data = data[n:]
	ln, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, nil, fmt.Errorf("segment: bad table-name header: %w", ErrCorrupt)
	}
	if ln > MaxTableName {
		return nil, nil, fmt.Errorf("segment: table-name length %d exceeds limit %d: %w", ln, MaxTableName, ErrCorrupt)
	}
	if uint64(len(data)-n) < ln {
		return nil, nil, fmt.Errorf("segment: truncated table name: %w", ErrCorrupt)
	}
	g.ID.Table = string(data[n : n+int(ln)])
	return g, data[n+int(ln):], nil
}

// DecodeLazy verifies a segment's checksum trailer, parses its header and
// column directory, and keeps the payload for on-demand column decoding.
// Block contents are validated when they are first decoded; a missing or
// mismatching trailer and header or directory corruption are rejected
// here, wrapping ErrCorrupt.
func DecodeLazy(schema *tuple.Schema, data []byte) (*Segment, error) {
	size := int64(len(data))
	raw, sum, err := splitChecksum(data)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(magicV2) || [4]byte(raw[:4]) != magicV2 {
		return nil, fmt.Errorf("segment: missing v2 magic: %w", ErrCorrupt)
	}
	g, rest, err := decodeHeader(raw[4:])
	if err != nil {
		return nil, err
	}
	nrows, sz := binary.Uvarint(rest)
	if sz <= 0 {
		return nil, fmt.Errorf("segment: bad v2 row count: %w", ErrCorrupt)
	}
	if nrows > MaxSegmentRows {
		return nil, fmt.Errorf("segment: v2 row count %d exceeds MaxSegmentRows %d: %w", nrows, MaxSegmentRows, ErrCorrupt)
	}
	rest = rest[sz:]
	ncols, sz := binary.Uvarint(rest)
	if sz <= 0 {
		return nil, fmt.Errorf("segment: bad v2 column count: %w", ErrCorrupt)
	}
	rest = rest[sz:]
	if ncols != uint64(schema.Len()) {
		return nil, fmt.Errorf("segment: v2 directory has %d columns, schema %v has %d: %w", ncols, schema, schema.Len(), ErrCorrupt)
	}
	dir := make([]ColumnMeta, schema.Len())
	var total int64
	for ci := range dir {
		m := &dir[ci]
		if len(rest) == 0 {
			return nil, fmt.Errorf("segment: truncated directory at column %d: %w", ci, ErrCorrupt)
		}
		m.Encoding = Encoding(rest[0])
		rest = rest[1:]
		bl, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return nil, fmt.Errorf("segment: bad block length for column %d: %w", ci, ErrCorrupt)
		}
		rest = rest[sz:]
		// The remaining bytes still hold the rest of the directory plus
		// every block, so any single length beyond them is corrupt. The
		// bound also keeps the int64 total from overflowing on crafted
		// huge uvarints (ncols is schema-bounded).
		if bl > uint64(len(rest)) {
			return nil, fmt.Errorf("segment: column %d block length %d exceeds %d remaining bytes: %w", ci, bl, len(rest), ErrCorrupt)
		}
		m.BlockLen = int(bl)
		total += int64(bl)
		nulls, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return nil, fmt.Errorf("segment: bad null count for column %d: %w", ci, ErrCorrupt)
		}
		rest = rest[sz:]
		m.Nulls = int64(nulls)
		if len(rest) == 0 {
			return nil, fmt.Errorf("segment: truncated range flag for column %d: %w", ci, ErrCorrupt)
		}
		hasRange := rest[0]
		rest = rest[1:]
		if hasRange > 1 {
			return nil, fmt.Errorf("segment: bad range flag %d for column %d: %w", hasRange, ci, ErrCorrupt)
		}
		if hasRange == 1 {
			kind := schema.Cols[ci].Kind
			var err error
			if m.Min, rest, err = decodeDirValue(rest, kind); err != nil {
				return nil, fmt.Errorf("segment: column %d min: %v: %w", ci, err, ErrCorrupt)
			}
			if m.Max, rest, err = decodeDirValue(rest, kind); err != nil {
				return nil, fmt.Errorf("segment: column %d max: %v: %w", ci, err, ErrCorrupt)
			}
			m.HasRange = true
		}
	}
	if int64(len(rest)) != total {
		return nil, fmt.Errorf("segment: directory claims %d block bytes, %d remain: %w", total, len(rest), ErrCorrupt)
	}
	g.payload = &payload{rows: int(nrows), size: size, body: rest, dir: dir, raw: raw, crc: sum}
	return g, nil
}

// ColumnData is the result of a projected decode: one typed vector per
// schema column (zero for columns the projection skipped) plus the byte
// accounting behind the bytes-fetched / decoded / materialized metrics.
type ColumnData struct {
	// Cols has one entry per schema column; entries outside the
	// projection are zero. The vectors are reused across DecodeColumns
	// calls that pass the same ColumnData back in.
	Cols []tuple.Vector
	// NumRows is the segment's row count (also for empty projections).
	NumRows int
	// BytesDecoded counts encoded block bytes actually decoded.
	BytesDecoded int64
	// BytesSkipped counts encoded block bytes the projection skipped.
	BytesSkipped int64
	// BytesMaterialized counts the logical size of the decoded values
	// (8 bytes per numeric, payload length per string).
	BytesMaterialized int64
	// views is set while Cols holds a memoized segment's vectors.
	views bool
}

// Views reports whether the last decode handed out a memoized segment's
// vectors (Segment.Memoize): Cols are then read-only views, shared with
// every other reader of the segment, which must not be written into,
// pooled or given away as a buffer. The next decode into the same
// ColumnData drops them rather than decoding into them.
func (cd *ColumnData) Views() bool { return cd.views }

// Release hands the decoded vectors back to the working-memory pool,
// unless they are views (Views), and Cols with them.
func (cd *ColumnData) Release() {
	for _, v := range cd.Cols {
		if !cd.views {
			tuple.Release(v.I)
			tuple.Release(v.F)
			tuple.Release(v.S)
		}
	}
	clear(cd.Cols)
	tuple.Release(cd.Cols)
	cd.Cols = nil
}

// DecodeColumns decodes the projected columns of a lazy segment. proj
// lists schema column indexes to decode, in any order; nil means every
// column, and an empty non-nil slice decodes nothing (row counts only —
// what a COUNT(*) scan needs). Pass a previous ColumnData back in to
// reuse its buffers; a ColumnData without Cols draws them from the
// working-memory pool, and Release hands them back. Errors wrap ErrCorrupt.
//
// A memoized segment decodes each column once, into its memo, and hands
// Cols out as views of the memo's vectors (ColumnData.Views); a column
// already in the memo counts no bytes decoded or materialized.
func (g *Segment) DecodeColumns(schema *tuple.Schema, proj []int, reuse *ColumnData) (*ColumnData, error) {
	p := g.payload
	if p == nil {
		return nil, fmt.Errorf("segment %v: DecodeColumns on a materialized segment", g.ID)
	}
	cd := reuse
	if cd == nil {
		cd = &ColumnData{}
	}
	if len(cd.Cols) != schema.Len() {
		cd.Cols = tuple.Take[tuple.Vector](schema.Len())
		clear(cd.Cols)
	}
	want := make([]bool, 0, 64) // want[ci]: column ci is projected; on the stack up to 64 columns
	for range schema.Cols {
		want = append(want, proj == nil)
	}
	if cd.views && g.memo == nil {
		clear(cd.Cols) // never decode into another segment's memo
	}
	mo := g.memo
	if cd.views = mo != nil; mo != nil {
		mo.mu.Lock()
		defer mo.mu.Unlock()
		if mo.cols == nil {
			mo.cols, mo.done = make([]tuple.Vector, schema.Len()), make([]bool, schema.Len())
		}
	}
	cd.NumRows = p.rows
	cd.BytesDecoded, cd.BytesSkipped, cd.BytesMaterialized = 0, 0, 0
	for _, ci := range proj {
		if ci < 0 || ci >= schema.Len() {
			return nil, fmt.Errorf("segment %v: projected column %d out of range (%d columns)", g.ID, ci, schema.Len())
		}
		want[ci] = true
	}
	block := p.body
	for ci, m := range p.dir {
		if m.BlockLen > len(block) {
			return nil, fmt.Errorf("segment %v: column %d block overruns payload: %w", g.ID, ci, ErrCorrupt)
		}
		if !want[ci] {
			cd.Cols[ci] = tuple.Vector{}
			cd.BytesSkipped += int64(m.BlockLen)
			block = block[m.BlockLen:]
			continue
		}
		col, dst := schema.Cols[ci], &cd.Cols[ci]
		if mo != nil {
			if dst = &mo.cols[ci]; mo.done[ci] {
				cd.Cols[ci] = *dst
				block = block[m.BlockLen:]
				continue
			}
		}
		if err := decodeColumn(col.Kind, m.Encoding, block[:m.BlockLen], p.rows, dst); err != nil {
			return nil, fmt.Errorf("segment %v: column %q: %v: %w", g.ID, col.Name, err, ErrCorrupt)
		}
		size := dst.Size(col.Kind, p.rows)
		if mo != nil {
			mo.done[ci], mo.bytes, cd.Cols[ci] = true, mo.bytes+size, *dst
		}
		cd.BytesDecoded += int64(m.BlockLen)
		cd.BytesMaterialized += size
		block = block[m.BlockLen:]
	}
	return cd, nil
}

// Materialize returns the segment's rows, decoding every column of a lazy
// payload. The rows are freshly allocated per call; only a memoized
// segment's column decode is done once.
func (g *Segment) Materialize(schema *tuple.Schema) ([]tuple.Row, error) {
	if g.payload == nil {
		return g.Rows, nil
	}
	cd, err := g.DecodeColumns(schema, nil, nil)
	if err != nil {
		return nil, err
	}
	return tuple.BatchOf(schema, cd.Cols, cd.NumRows).Rows(), nil
}

// Split partitions rows into segments of at most rowsPerSegment rows each,
// assigning sequential indices and the given nominal per-segment size. An
// empty relation still produces one empty segment so that scans and the
// subplan lattice are well-defined.
func Split(tenant int, table string, rows []tuple.Row, rowsPerSegment int, nominalBytes int64) []*Segment {
	if rowsPerSegment <= 0 {
		panic("segment: rowsPerSegment must be positive")
	}
	var segs []*Segment
	for start := 0; start == 0 || start < len(rows); start += rowsPerSegment {
		end := start + rowsPerSegment
		if end > len(rows) {
			end = len(rows)
		}
		segs = append(segs, &Segment{
			ID:           ObjectID{Tenant: tenant, Table: table, Index: len(segs)},
			Rows:         rows[start:end],
			NominalBytes: nominalBytes,
		})
	}
	return segs
}
