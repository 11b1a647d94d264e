package engine

import (
	"slices"

	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/tuple"
)

// Leg is how a plan reads one relation: a physical projection, a local
// predicate and the columns it hands on, applied by the one decode →
// filter → select kernel both engines run over every segment. Only the
// projected columns are decoded, the predicate becomes a selection vector,
// and only the survivors of only the columns handed on are copied out — a
// column only the predicate reads goes no further — so nothing downstream
// is wider than the leg's schema. SeqScan runs the kernel a batch-sized
// range at a time into its reused output batch, MJoin a whole arrival at a
// time into the batch it caches. A Leg is immutable.
type Leg struct {
	// schema is table restricted to out, the columns the leg hands on, of
	// cols, the ones it decodes; both are table columns in ascending order,
	// every column spelled out for a nil projection.
	table, schema *tuple.Schema
	cols, out     []int
	// filter is bound against table, not schema, and may only read cols;
	// nil keeps every row. Only filterCols, the columns it names, become Values.
	filter     expr.Expr
	filterCols []int
}

// NewLeg builds the leg of a table with the given schema. cols lists, in
// ascending order, the table columns the leg decodes (nil = all, empty =
// row counts only), out those of them it hands on (nil = all of cols);
// filter is bound against table.
func NewLeg(table *tuple.Schema, cols, out []int, filter expr.Expr) *Leg {
	l := &Leg{table: table, schema: table, cols: cols, out: out, filter: filter}
	if cols == nil {
		l.cols = make([]int, table.Len())
		for i := range l.cols {
			l.cols[i] = i
		}
	}
	if out == nil {
		l.out = l.cols
	}
	if cols != nil || out != nil {
		l.schema = table.Project(l.out)
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

// Schema describes every batch the leg produces: the table restricted to
// the columns the leg hands on.
func (l *Leg) Schema() *tuple.Schema { return l.schema }

// segmentBytes is the byte accounting of one decoded segment.
func segmentBytes(seg *segment.Segment, cd *segment.ColumnData) ScanBytes {
	return ScanBytes{
		Fetched:             seg.EncodedSize(),
		Decoded:             cd.BytesDecoded,
		SkippedByProjection: cd.BytesSkipped,
		Materialized:        cd.BytesMaterialized,
	}
}

// LegScratch is a kernel caller's reusable state: the decode buffer, whose
// Cols, as wide as the table, are kept across segments, the table-width row
// a decoded position is presented to the filter through (only the columns
// the filter names are ever set) and the selection vector. A caller keeps
// one per leg it runs.
type LegScratch struct {
	cd  segment.ColumnData
	row tuple.Row
	sel []int32
}

// Release hands the decode buffer (unless it holds views) and the
// selection vector back to the working-memory pool.
func (sc *LegScratch) Release() {
	sc.cd.Release()
	tuple.Release(sc.sel)
	sc.sel = nil
}

// selectRows leaves in sc.sel the positions in [lo, hi) of a segment —
// decoded columns cd, or materialized rows when cd is nil — that pass the
// filter.
func (l *Leg) selectRows(cd *segment.ColumnData, rows []tuple.Row, lo, hi int, sc *LegScratch) error {
	if cd != nil && len(sc.row) != l.table.Len() {
		sc.row = make(tuple.Row, l.table.Len())
	}
	sc.sel = tuple.Resize(sc.sel, hi-lo)[:0]
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

// appendRows copies the columns the leg hands on of segment rows [lo, hi)
// to dst — of the positions in sel only, when the leg filters.
func (l *Leg) appendRows(dst *tuple.Batch, cd *segment.ColumnData, rows []tuple.Row, lo, hi int, sel []int32) {
	switch {
	case cd != nil && l.filter == nil:
		dst.AppendColumns(cd.Cols, l.out, lo, hi)
	case cd != nil:
		dst.AppendSelected(cd.Cols, l.out, sel)
	case l.filter == nil:
		for _, r := range rows[lo:hi] {
			dst.AppendProjected(r, l.out)
		}
	default:
		for _, i := range sel {
			dst.AppendProjected(rows[i], l.out)
		}
	}
}

// ReadSegment runs the kernel over one whole delivered segment and returns
// the leg's rows as a batch the caller owns, allocated at the survivor
// count. sc is the caller's scratch, kept across calls: a projected column
// of a lazy segment decodes into its buffer's vector whenever that is long
// enough. An unfiltered lazy segment is not copied at all: the batch takes
// over the decoded vectors of the columns the leg hands on, and the buffer
// is left without them: the next decode into it draws those from the
// working-memory pool. A memoized segment's decoded vectors are read-only
// views (segment.ColumnData.Views), and the batch is then a view too
// (tuple.Batch.View), which the caller must not reuse as buffers. Decode
// errors wrap segment.ErrCorrupt.
func (l *Leg) ReadSegment(seg *segment.Segment, sc *LegScratch) (*tuple.Batch, ScanBytes, error) {
	var by ScanBytes
	var cd *segment.ColumnData
	n := len(seg.Rows)
	if seg.Lazy() {
		var err error
		if cd, err = seg.DecodeColumns(l.table, l.cols, &sc.cd); err != nil {
			return nil, by, err
		}
		by, n = segmentBytes(seg, cd), cd.NumRows
		if l.filter == nil {
			var small [16]tuple.Vector // the batch copies the headers
			cols := small[:0]
			for _, src := range l.out {
				cols, cd.Cols[src] = append(cols, cd.Cols[src]), tuple.Vector{}
			}
			if cd.Views() {
				return tuple.ViewOf(l.schema, cols, n), by, nil
			}
			return tuple.BatchOf(l.schema, cols, n), by, nil
		}
	}
	survivors := n
	if l.filter != nil {
		if err := l.selectRows(cd, seg.Rows, 0, n, sc); err != nil {
			return nil, by, err
		}
		survivors = len(sc.sel)
	}
	out := tuple.NewBatch(l.schema, survivors)
	l.appendRows(out, cd, seg.Rows, 0, n, sc.sel)
	return out, by, nil
}
