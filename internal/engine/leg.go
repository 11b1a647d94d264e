package engine

import (
	"slices"

	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/tuple"
)

// Leg is how a plan reads one relation: a physical projection and a local
// predicate, applied by the one decode → filter → select kernel both
// engines run over every segment. Only the projected columns are decoded,
// the predicate becomes a selection vector, and only the survivors of only
// those columns are copied out, so nothing downstream is wider than the
// leg's schema. SeqScan runs the kernel a batch-sized range at a time into
// its reused output batch, MJoin a whole arrival at a time into the batch
// it caches. A Leg is immutable.
type Leg struct {
	// schema is table restricted to cols, the table column behind each leg
	// column (every column, spelled out, for a nil projection).
	table, schema *tuple.Schema
	cols          []int
	// filter is bound against table, not schema, and may only read cols;
	// nil keeps every row. Only filterCols, the columns it names, become Values.
	filter     expr.Expr
	filterCols []int
}

// NewLeg builds the leg of a table with the given schema. cols lists, in
// ascending order, the table columns the leg carries (nil = all, empty =
// row counts only); filter is bound against table.
func NewLeg(table *tuple.Schema, cols []int, filter expr.Expr) *Leg {
	l := &Leg{table: table, schema: table, cols: cols, filter: filter}
	if cols != nil {
		l.schema = table.Project(cols)
	} else {
		l.cols = make([]int, table.Len())
		for i := range l.cols {
			l.cols[i] = i
		}
	}
	if filter != nil {
		seen := expr.Columns(filter, func(c expr.Col) {
			if slices.Contains(l.cols, c.Idx) && !slices.Contains(l.filterCols, c.Idx) {
				l.filterCols = append(l.filterCols, c.Idx)
			}
		})
		if !seen { // a node expr cannot look into: assume it reads everything
			l.filterCols = l.cols
		}
	}
	return l
}

// Schema describes every batch the leg produces.
func (l *Leg) Schema() *tuple.Schema { return l.schema }

// Cols lists the table columns behind the leg's, in ascending order.
func (l *Leg) Cols() []int { return l.cols }

// segmentBytes is the byte accounting of one decoded segment.
func segmentBytes(seg *segment.Segment, cd *segment.ColumnData) ScanBytes {
	return ScanBytes{
		Fetched:             seg.EncodedSize(),
		Decoded:             cd.BytesDecoded,
		SkippedByProjection: cd.BytesSkipped,
		Materialized:        cd.BytesMaterialized,
	}
}

// legScratch is a kernel caller's reusable filter state: the table-width
// row a decoded position is presented to the filter through (only the
// columns the filter names are ever set) and the selection vector.
type legScratch struct {
	row tuple.Row
	sel []int32
}

// selectRows leaves in sc.sel the positions in [lo, hi) of a segment —
// decoded columns cd, or materialized rows when cd is nil — that pass the
// filter.
func (l *Leg) selectRows(cd *segment.ColumnData, rows []tuple.Row, lo, hi int, sc *legScratch) error {
	if cd != nil && len(sc.row) != l.table.Len() {
		sc.row = make(tuple.Row, l.table.Len())
	}
	sc.sel = sc.sel[:0]
	for i := lo; i < hi; i++ {
		row := sc.row
		if cd == nil {
			row = rows[i]
		} else {
			for _, c := range l.filterCols {
				row[c] = cd.Cols[c].Value(l.table.Cols[c].Kind, i)
			}
		}
		keep, err := expr.EvalBool(l.filter, row)
		if err != nil {
			return err
		}
		if keep {
			sc.sel = append(sc.sel, int32(i))
		}
	}
	return nil
}

// appendRows copies the leg's columns of segment rows [lo, hi) to dst —
// of the positions in sel only, when the leg filters.
func (l *Leg) appendRows(dst *tuple.Batch, cd *segment.ColumnData, rows []tuple.Row, lo, hi int, sel []int32) {
	switch {
	case cd != nil && l.filter == nil:
		dst.AppendColumns(cd.Cols, l.cols, lo, hi)
	case cd != nil:
		dst.AppendSelected(cd.Cols, l.cols, sel)
	case l.filter == nil:
		for _, r := range rows[lo:hi] {
			dst.AppendProjected(r, l.cols)
		}
	default:
		for _, i := range sel {
			dst.AppendProjected(rows[i], l.cols)
		}
	}
}

// ReadSegment runs the kernel over one whole delivered segment and returns
// the leg's rows as a batch the caller owns, allocated at the survivor
// count. buf is the caller's decode buffer, needed for a lazy segment only:
// its Cols, as wide as the table, are kept across calls, and a projected
// column decodes into its vector whenever that is long enough. An
// unfiltered lazy segment is not copied at all: the batch takes the decoded
// vectors over and buf is left without them, for the caller to restock.
// Decode errors wrap segment.ErrCorrupt.
func (l *Leg) ReadSegment(seg *segment.Segment, buf *segment.ColumnData) (*tuple.Batch, ScanBytes, error) {
	var by ScanBytes
	var cd *segment.ColumnData
	n := len(seg.Rows)
	if seg.Lazy() {
		var err error
		if cd, err = seg.DecodeColumns(l.table, l.cols, buf); err != nil {
			return nil, by, err
		}
		by, n = segmentBytes(seg, cd), cd.NumRows
		if l.filter == nil {
			cols := make([]tuple.Vector, len(l.cols))
			for c, src := range l.cols {
				cols[c], cd.Cols[src] = cd.Cols[src], tuple.Vector{}
			}
			return tuple.BatchOf(l.schema, cols, n), by, nil
		}
	}
	var sc legScratch
	survivors := n
	if l.filter != nil {
		sc.sel = make([]int32, 0, n)
		if err := l.selectRows(cd, seg.Rows, 0, n, &sc); err != nil {
			return nil, by, err
		}
		survivors = len(sc.sel)
	}
	out := tuple.NewBatch(l.schema, survivors)
	l.appendRows(out, cd, seg.Rows, 0, n, sc.sel)
	return out, by, nil
}
