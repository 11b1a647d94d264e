// Package stats implements the segment-statistics and data-skipping
// subsystem: per-segment zone maps (min/max per column plus row and null
// counts) and optional Bloom filters for equality columns. Statistics
// are computed once, when a relation is generated or loaded, and live
// with the catalog on the database VM — like the paper's catalog files
// they are local metadata, never objects on the cold storage device — so
// both engines can prove, before issuing a single GET, that a segment
// cannot contain a row satisfying a query's table-local predicates. On a
// CSD, where one avoided fetch saves a bandwidth-bound transfer and
// possibly a group switch, that proof is worth far more than the few
// bytes of metadata it costs.
package stats

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/segment"
	"repro/internal/tuple"
)

// ColumnStats is the zone-map entry of one column within one segment.
type ColumnStats struct {
	// Min and Max bound the column's values in the segment. They are
	// only meaningful when HasRange is true.
	Min, Max tuple.Value
	// HasRange reports whether the segment holds at least one row (the
	// engine has no NULLs, so a row always contributes to the range).
	HasRange bool
	// Nulls counts NULL values. This engine has no NULLs, so the field
	// is always zero; it is kept so the metadata format matches what a
	// real system would persist.
	Nulls int64
	// Bloom, when non-nil, summarizes the exact value set for equality
	// probes. It is built only for equality-friendly kinds (everything
	// but float64).
	Bloom *Bloom
}

// SegmentStats bundles the zone maps of one segment.
type SegmentStats struct {
	// Rows is the segment's row count.
	Rows int64
	// Cols holds one entry per schema column, in schema order.
	Cols []ColumnStats
}

// Table is the catalog-side statistics of one relation: one SegmentStats
// per backing object, aligned with the catalog's object order
// (Segments[i] describes the relation's i-th object).
type Table struct {
	// Name is the relation name, for diagnostics.
	Name string
	// Schema describes the columns the per-segment entries cover.
	Schema *tuple.Schema
	// Segments holds the per-segment zone maps in object order.
	Segments []SegmentStats
}

// Options controls what Collect computes.
type Options struct {
	// Blooms enables per-column Bloom filters for equality-friendly
	// kinds (int64, string, date, bool; floats are excluded — equality
	// predicates on floats are rare and their zone maps still apply).
	Blooms bool
	// BloomBitsPerRow sizes the filters; 10 bits/row gives ≈1% false
	// positives, and a false positive only costs an extra fetch, never
	// a wrong result.
	BloomBitsPerRow int
}

// DefaultOptions enables Bloom filters at 10 bits per row.
func DefaultOptions() Options { return Options{Blooms: true, BloomBitsPerRow: 10} }

// bloomKind reports whether a column kind gets a Bloom filter.
func bloomKind(k tuple.Kind) bool { return k != tuple.KindFloat64 }

// Collect computes the zone maps (and, per opt, Bloom filters) of a
// relation from its segments. The segments must be in the relation's
// object order and their rows must match the schema. It panics on a
// corrupt lazy segment; use CollectChecked to handle that as an error.
func Collect(name string, schema *tuple.Schema, segs []*segment.Segment, opt Options) *Table {
	t, err := CollectChecked(name, schema, segs, opt)
	if err != nil {
		panic(err)
	}
	return t
}

// CollectChecked is Collect with decode errors surfaced. In-memory
// segments are scanned row by row. Lazy segments take the fast path:
// min/max, row and null counts come straight from the column directory —
// no block is touched for the zone maps — and only the Bloom-filtered
// columns are decoded, one block at a time, never as rows. A par.For runs
// the segments, each into its slot; an error names the lowest failing one.
func CollectChecked(name string, schema *tuple.Schema, segs []*segment.Segment, opt Options) (*Table, error) {
	t := &Table{Name: name, Schema: schema, Segments: make([]SegmentStats, len(segs))}
	scratch := make([]decodeScratch, par.Workers(len(segs)))
	defer func() { // the pool's again
		for _, sc := range scratch {
			tuple.Release(sc.ints.I)
			tuple.Release(sc.strs.S)
		}
	}()
	if err := par.For(len(segs), func(w, si int) (err error) {
		sg := segs[si]
		if dir := sg.Directory(); dir == nil {
			t.Segments[si] = segmentStatsFromRows(schema, sg.Rows, opt)
		} else if t.Segments[si], err = segmentStatsFromDirectory(schema, sg, dir, opt, &scratch[w]); err != nil {
			return fmt.Errorf("stats: %s segment %d: %w", name, si, err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return t, nil
}

// segmentStatsFromRows builds an in-memory segment's statistics row by row.
func segmentStatsFromRows(schema *tuple.Schema, rows []tuple.Row, opt Options) SegmentStats {
	ss := newSegmentStats(schema, len(rows), opt)
	for ci := range schema.Cols {
		cs := &ss.Cols[ci]
		for _, row := range rows {
			v := row[ci]
			if !cs.HasRange {
				cs.Min, cs.Max, cs.HasRange = v, v, true
			} else {
				if tuple.Compare(v, cs.Min) < 0 {
					cs.Min = v
				}
				if tuple.Compare(v, cs.Max) > 0 {
					cs.Max = v
				}
			}
			if cs.Bloom != nil {
				cs.Bloom.Add(v.Hash())
			}
		}
	}
	return ss
}

// newSegmentStats makes a segment's statistics with an empty Bloom filter
// on every column opt gives one, all filters in one newBlooms.
func newSegmentStats(schema *tuple.Schema, rows int, opt Options) SegmentStats {
	ss := SegmentStats{Rows: int64(rows), Cols: make([]ColumnStats, schema.Len())}
	n := 0
	for _, col := range schema.Cols {
		if opt.Blooms && bloomKind(col.Kind) {
			n++
		}
	}
	bl := newBlooms(n, rows, opt.BloomBitsPerRow)
	for ci, col := range schema.Cols {
		if opt.Blooms && bloomKind(col.Kind) {
			ss.Cols[ci].Bloom, bl = &bl[0], bl[1:]
		}
	}
	return ss
}

// decodeScratch is what one worker's Bloom-column decodes reuse; as
// DecodeColumns zeroes the slots it skips, each class's vector waits here.
type decodeScratch struct {
	cd         segment.ColumnData
	ints, strs tuple.Vector
}

// segmentStatsFromDirectory builds one segment's statistics from its
// column directory: zone maps are copied verbatim (the encoder computed
// them in the same pass that sized the blocks), and Bloom filters decode
// just their own column's block via the projected decoder, into sc.
func segmentStatsFromDirectory(schema *tuple.Schema, sg *segment.Segment, dir []segment.ColumnMeta, opt Options, sc *decodeScratch) (SegmentStats, error) {
	ss := newSegmentStats(schema, sg.NumRows(), opt)
	if sc.cd.Cols == nil {
		sc.cd.Cols = make([]tuple.Vector, schema.Len())
	}
	for ci, col := range schema.Cols {
		cs := &ss.Cols[ci]
		cs.Min, cs.Max, cs.HasRange, cs.Nulls = dir[ci].Min, dir[ci].Max, dir[ci].HasRange, dir[ci].Nulls
		if cs.Bloom == nil {
			continue
		}
		kept := &sc.ints
		if col.Kind == tuple.KindString {
			kept = &sc.strs
		}
		sc.cd.Cols[ci] = *kept
		_, err := sg.DecodeColumns(schema, []int{ci}, &sc.cd)
		v := sc.cd.Cols[ci]
		if !sc.cd.Views() { // a memoized segment's vector is its memo's
			*kept = v
		}
		if err != nil {
			return SegmentStats{}, err
		}
		if col.Kind == tuple.KindString {
			for _, s := range v.S[:sc.cd.NumRows] {
				cs.Bloom.Add(tuple.HashString(s))
			}
		} else {
			for _, x := range v.I[:sc.cd.NumRows] {
				cs.Bloom.Add(tuple.HashInt(x))
			}
		}
	}
	return ss, nil
}

// RowCount sums the per-segment row counts.
func (t *Table) RowCount() int64 {
	var n int64
	for _, s := range t.Segments {
		n += s.Rows
	}
	return n
}

// String renders a short summary for diagnostics.
func (t *Table) String() string {
	return fmt.Sprintf("stats(%s: %d segments, %d rows)", t.Name, len(t.Segments), t.RowCount())
}
