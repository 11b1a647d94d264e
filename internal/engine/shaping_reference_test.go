package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"repro/internal/expr"
	"repro/internal/tuple"
)

// The row-at-a-time blocking operators this engine ran before HashAgg,
// Sort and Distinct held typed columns, kept as their oracle: state is
// tuple.Value accumulators and cloned rows, and every input row is
// materialized. Their results are the contract the typed operators keep.

// refHashAgg is the reference HashAgg: groups found by the hash of their
// value row plus kind and Equal, emitted in "kind|display" order.
type refHashAgg struct {
	child     Iterator
	groups    []GroupCol
	aggs      []AggSpec
	groupKeys []int
	schema    *tuple.Schema

	out []tuple.Row
	idx int
	ob  *tuple.Batch
}

func newRefHashAgg(child Iterator, groups []GroupCol, aggs []AggSpec) *refHashAgg {
	return &refHashAgg{child: child, groups: groups, aggs: aggs, groupKeys: refAllKeys(len(groups)),
		schema: NewHashAgg(child, groups, aggs).Schema()}
}

func refAllKeys(n int) []int {
	keys := make([]int, n)
	for i := range keys {
		keys[i] = i
	}
	return keys
}

func (a *refHashAgg) Schema() *tuple.Schema { return a.schema }

// refAccum is one group's accumulator state.
type refAccum struct {
	hash   uint64
	next   *refAccum
	key    string
	groupV tuple.Row
	counts []int64
	sums   []float64
	minmax []tuple.Value
	seen   []bool
}

func (a *refHashAgg) newAccum(hash uint64, groupV tuple.Row) *refAccum {
	return &refAccum{
		hash:   hash,
		groupV: groupV,
		counts: make([]int64, len(a.aggs)),
		sums:   make([]float64, len(a.aggs)),
		minmax: make([]tuple.Value, len(a.aggs)),
		seen:   make([]bool, len(a.aggs)),
	}
}

// refTable is a set of value rows chained by hash, plus the entries in the
// order they were first seen.
type refTable struct {
	byHash map[uint64]*refAccum
	order  []*refAccum
	gv     tuple.Row
}

func newRefTable() *refTable { return &refTable{byHash: make(map[uint64]*refAccum)} }

// find returns the entry with the given values; values of different kinds
// never share one.
func (t *refTable) find(hash uint64, groupV tuple.Row) *refAccum {
next:
	for acc := t.byHash[hash]; acc != nil; acc = acc.next {
		for i, v := range acc.groupV {
			if v.K != groupV[i].K || !tuple.Equal(v, groupV[i]) {
				continue next
			}
		}
		return acc
	}
	return nil
}

func (t *refTable) insert(acc *refAccum) {
	acc.next = t.byHash[acc.hash]
	t.byHash[acc.hash] = acc
	t.order = append(t.order, acc)
}

func (a *refHashAgg) foldRow(t *refTable, row tuple.Row) error {
	t.gv = t.gv[:0]
	for _, g := range a.groups {
		v, err := g.E.Eval(row)
		if err != nil {
			return err
		}
		t.gv = append(t.gv, v)
	}
	hash := tuple.HashRowKey(t.gv, a.groupKeys)
	acc := t.find(hash, t.gv)
	if acc == nil {
		acc = a.newAccum(hash, t.gv.Clone())
		t.insert(acc)
	}
	for i, spec := range a.aggs {
		var v tuple.Value
		if spec.Arg != nil {
			var err error
			v, err = spec.Arg.Eval(row)
			if err != nil {
				return err
			}
		}
		acc.counts[i]++
		switch spec.Kind {
		case AggSum, AggAvg:
			acc.sums[i] += v.AsFloat()
		case AggMin:
			if !acc.seen[i] || tuple.Compare(v, acc.minmax[i]) < 0 {
				acc.minmax[i] = v
			}
		case AggMax:
			if !acc.seen[i] || tuple.Compare(v, acc.minmax[i]) > 0 {
				acc.minmax[i] = v
			}
		}
		acc.seen[i] = true
	}
	return nil
}

// refSortKey renders the order key: per group value, its kind number, '|',
// its display form and a NUL.
func refSortKey(buf []byte, groupV tuple.Row) []byte {
	for _, v := range groupV {
		buf = strconv.AppendUint(buf, uint64(v.K), 10)
		buf = append(buf, '|')
		buf = append(buf, v.String()...)
		buf = append(buf, 0)
	}
	return buf
}

func (a *refHashAgg) Open() error {
	t := newRefTable()
	if err := refDrain(a.child, func(row tuple.Row) error { return a.foldRow(t, row) }); err != nil {
		return err
	}
	if len(a.groups) == 0 && len(t.order) == 0 {
		t.order = append(t.order, a.newAccum(0, nil))
	}
	var buf []byte
	for _, acc := range t.order {
		buf = refSortKey(buf[:0], acc.groupV)
		acc.key = string(buf)
	}
	sort.SliceStable(t.order, func(i, j int) bool { return t.order[i].key < t.order[j].key })
	a.out = a.out[:0]
	for _, acc := range t.order {
		row := make(tuple.Row, 0, len(a.groups)+len(a.aggs))
		row = append(row, acc.groupV...)
		for i, spec := range a.aggs {
			switch spec.Kind {
			case AggCount:
				row = append(row, tuple.Int(acc.counts[i]))
			case AggSum:
				row = append(row, tuple.Float(acc.sums[i]))
			case AggAvg:
				if acc.counts[i] == 0 {
					row = append(row, tuple.Float(0))
				} else {
					row = append(row, tuple.Float(acc.sums[i]/float64(acc.counts[i])))
				}
			case AggMin, AggMax:
				row = append(row, acc.minmax[i])
			}
		}
		a.out = append(a.out, row)
	}
	a.idx = 0
	return nil
}

func (a *refHashAgg) NextBatch() (*tuple.Batch, bool, error) {
	return serveRowSlice(&a.ob, a.schema, a.out, &a.idx)
}

func (a *refHashAgg) Close() error {
	a.out = nil
	return closeOutput(&a.ob, nil)
}

// refDrain opens bi, feeds every row to fn through a reused scratch row,
// and closes it.
func refDrain(bi Iterator, fn func(row tuple.Row) error) error {
	if err := bi.Open(); err != nil {
		bi.Close()
		return err
	}
	defer bi.Close()
	var scratch tuple.Row
	for {
		b, ok, err := bi.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for i := 0; i < b.Len(); i++ {
			scratch = b.AppendRowTo(scratch[:0], i)
			if err := fn(scratch); err != nil {
				return err
			}
		}
	}
}

// refSort is the reference Sort: every input row materialized, key values
// precomputed per row, a stable sort by tuple.Compare.
type refSort struct {
	child Iterator
	keys  []SortKey
	out   []tuple.Row
	idx   int
	ob    *tuple.Batch
}

func (s *refSort) Schema() *tuple.Schema { return s.child.Schema() }

func (s *refSort) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	defer s.child.Close()
	s.out = s.out[:0]
	for {
		b, ok, err := s.child.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.out = append(s.out, b.Rows()...)
	}
	keyVals := make([][]tuple.Value, len(s.out))
	for i, row := range s.out {
		kv := make([]tuple.Value, len(s.keys))
		for j, k := range s.keys {
			v, err := k.E.Eval(row)
			if err != nil {
				return err
			}
			kv[j] = v
		}
		keyVals[i] = kv
	}
	idx := make([]int, len(s.out))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for j, k := range s.keys {
			c := tuple.Compare(keyVals[idx[a]][j], keyVals[idx[b]][j])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	sorted := make([]tuple.Row, len(s.out))
	for i, j := range idx {
		sorted[i] = s.out[j]
	}
	s.out = sorted
	s.idx = 0
	return nil
}

func (s *refSort) NextBatch() (*tuple.Batch, bool, error) {
	return serveRowSlice(&s.ob, s.child.Schema(), s.out, &s.idx)
}

func (s *refSort) Close() error {
	s.out = nil
	return closeOutput(&s.ob, nil)
}

// refDistinct is the reference Distinct: each row remembered as a cloned
// value row, found by hash, kind and Equal.
type refDistinct struct {
	child  Iterator
	keys   []int
	seen   *refTable
	out    *tuple.Batch
	rowBuf tuple.Row
}

func newRefDistinct(child Iterator) *refDistinct {
	return &refDistinct{child: child, keys: refAllKeys(child.Schema().Len())}
}

func (d *refDistinct) Schema() *tuple.Schema { return d.child.Schema() }

func (d *refDistinct) Open() error {
	d.seen = newRefTable()
	return d.child.Open()
}

func (d *refDistinct) NextBatch() (*tuple.Batch, bool, error) {
	for {
		in, ok, err := d.child.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		n := in.Len()
		out := sizedOutput(&d.out, in.Schema(), n)
		for i := 0; i < n; i++ {
			d.rowBuf = in.AppendRowTo(d.rowBuf[:0], i)
			hash := tuple.HashRowKey(d.rowBuf, d.keys)
			if d.seen.find(hash, d.rowBuf) != nil {
				continue
			}
			d.seen.insert(&refAccum{hash: hash, groupV: d.rowBuf.Clone()})
			out.AppendRange(in, i, i+1)
		}
		if out.Len() > 0 {
			return out, true, nil
		}
	}
}

func (d *refDistinct) Close() error {
	d.seen = nil
	return closeOutput(&d.out, d.child)
}

// The value domains of the shaping differential: few enough values per
// kind that groups, duplicates and sort ties abound, and the cells the
// emitted order and the group match must get right — −0 and 0, NaN, ±Inf,
// the extremes of %g, strings holding NUL, "kind|", ", " and parentheses,
// dates on both sides of 1970.
var (
	shapingInts    = []int64{-3, -1, 0, 1, 2, 9, 10}
	shapingFloats  = []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -2, 1e21, 5e-324, math.Inf(1), math.Inf(-1), 9, 10}
	shapingStrings = []string{"", "a", "x", "x\x00", "x\x002|y", "2|z", "a, b", "(1)", "9", "10"}
	shapingDates   = []int64{-400, -1, 0, 3, 400}
	shapingSchema  = tuple.NewSchema(
		tuple.Column{Name: "i", Kind: tuple.KindInt64}, tuple.Column{Name: "f", Kind: tuple.KindFloat64},
		tuple.Column{Name: "s", Kind: tuple.KindString}, tuple.Column{Name: "d", Kind: tuple.KindDate},
		tuple.Column{Name: "b", Kind: tuple.KindBool},
	)
)

// shapingRows draws n rows of shapingSchema, each cell's value chosen by
// pick(len(domain)).
func shapingRows(n int, pick func(int) int) []tuple.Row {
	rows := make([]tuple.Row, n)
	for r := range rows {
		rows[r] = tuple.Row{
			tuple.Int(shapingInts[pick(len(shapingInts))]), tuple.Float(shapingFloats[pick(len(shapingFloats))]),
			tuple.Str(shapingStrings[pick(len(shapingStrings))]), tuple.DateFromDays(shapingDates[pick(len(shapingDates))]),
			tuple.Bool(pick(2) == 1),
		}
	}
	return rows
}

// shapingCase is one plan over shapingSchema built twice: from the typed
// operators and from the row reference.
type shapingCase struct {
	name       string
	typed, ref func(Iterator) Iterator
}

// shapingCases covers HashAgg over every group kind, several group
// columns, none (global) and group values that are not bare columns, with
// every aggregate, arguments of every kind and arguments that are
// evaluated; Sort by every kind both ways, by several keys, by evaluated
// keys — one of them of mixed kinds — and above a HashAgg; Distinct over
// every column and over a projection.
func shapingCases() []shapingCase {
	sch := shapingSchema
	col := func(name string) expr.Col { return expr.Bind(sch, name) }
	plusOne := expr.Arith{Op: expr.Add, L: col("i"), R: expr.Lit(tuple.Int(1))}
	twice := expr.Arith{Op: expr.Mul, L: col("f"), R: expr.Lit(tuple.Float(2))}
	label := expr.Case{Branches: []expr.CaseBranch{{When: col("b"), Then: col("s")}}, Else: expr.Lit(tuple.Str("none"))}
	// Groups (s, tail) of ("x", "y\x002|z") and ("x\x002|y", "z") render
	// one order key: they tie, and keep the order they were first seen in.
	tail := expr.Case{Branches: []expr.CaseBranch{{When: col("b"), Then: expr.Lit(tuple.Str("y\x002|z"))}}, Else: expr.Lit(tuple.Str("z"))}
	mixed := expr.Case{Branches: []expr.CaseBranch{{When: col("b"), Then: col("i")}}, Else: col("f")}
	group := map[string]GroupCol{
		"i": {Name: "i", Kind: tuple.KindInt64, E: col("i")}, "f": {Name: "f", Kind: tuple.KindFloat64, E: col("f")},
		"s": {Name: "s", Kind: tuple.KindString, E: col("s")}, "d": {Name: "d", Kind: tuple.KindDate, E: col("d")},
		"b":     {Name: "b", Kind: tuple.KindBool, E: col("b")},
		"i+1":   {Name: "i+1", Kind: tuple.KindInt64, E: plusOne},
		"label": {Name: "label", Kind: tuple.KindString, E: label},
		"tail":  {Name: "tail", Kind: tuple.KindString, E: tail},
	}
	aggs := []AggSpec{
		{Kind: AggCount, Name: "n"},
		{Kind: AggCount, Arg: col("s"), Name: "n_s"},
		{Kind: AggSum, Arg: col("f"), Name: "sum_f"},
		{Kind: AggSum, Arg: col("i"), Name: "sum_i"},
		{Kind: AggSum, Arg: twice, Name: "sum_2f"},
		{Kind: AggAvg, Arg: col("f"), Name: "avg_f"},
		{Kind: AggAvg, Arg: col("d"), Name: "avg_d"},
		{Kind: AggMin, Arg: twice, ArgKind: tuple.KindFloat64, Name: "min_2f"},
		{Kind: AggMax, Arg: plusOne, ArgKind: tuple.KindInt64, Name: "max_i+1"},
	}
	for _, c := range sch.Cols {
		aggs = append(aggs,
			AggSpec{Kind: AggMin, Arg: col(c.Name), ArgKind: c.Kind, Name: "min_" + c.Name},
			AggSpec{Kind: AggMax, Arg: col(c.Name), ArgKind: c.Kind, Name: "max_" + c.Name})
	}
	var cases []shapingCase
	for _, names := range [][]string{{}, {"i"}, {"f"}, {"s"}, {"d"}, {"b"}, {"s", "i"}, {"f", "d", "b"}, {"i", "f", "s", "d", "b"}, {"i+1"}, {"label", "f"}, {"s", "tail"}} {
		var gs []GroupCol
		for _, n := range names {
			gs = append(gs, group[n])
		}
		cases = append(cases, shapingCase{fmt.Sprintf("HashAgg by %v", names),
			func(in Iterator) Iterator { return NewHashAgg(in, gs, aggs) },
			func(in Iterator) Iterator { return newRefHashAgg(in, gs, aggs) }})
	}
	for _, keys := range [][]SortKey{
		{{E: col("i")}}, {{E: col("f"), Desc: true}}, {{E: col("f")}}, {{E: col("s")}}, {{E: col("d"), Desc: true}},
		{{E: col("b")}}, {{E: col("s")}, {E: col("f"), Desc: true}}, {{E: col("b")}, {E: col("d")}, {E: col("i"), Desc: true}},
		{{E: plusOne, Desc: true}}, {{E: mixed, Desc: true}, {E: col("s")}}, {{E: label}, {E: twice}},
	} {
		cases = append(cases, shapingCase{fmt.Sprintf("Sort by %v", keys),
			func(in Iterator) Iterator { return NewSort(in, keys) },
			func(in Iterator) Iterator { return &refSort{child: in, keys: keys} }})
	}
	byF := []GroupCol{group["f"]}
	count := []AggSpec{{Kind: AggCount, Name: "n"}, {Kind: AggMin, Arg: col("s"), ArgKind: tuple.KindString, Name: "min_s"}}
	cases = append(cases, shapingCase{"Sort over HashAgg",
		func(in Iterator) Iterator {
			agg := NewHashAgg(in, byF, count)
			return NewSort(agg, []SortKey{{E: expr.NewCol(1, "n"), Desc: true}})
		},
		func(in Iterator) Iterator {
			return &refSort{child: newRefHashAgg(in, byF, count), keys: []SortKey{{E: expr.NewCol(1, "n"), Desc: true}}}
		}})
	proj := []ProjectCol{{Name: "s", Kind: tuple.KindString, E: col("s")}, {Name: "f", Kind: tuple.KindFloat64, E: col("f")}}
	cases = append(cases,
		shapingCase{"Distinct", func(in Iterator) Iterator { return NewDistinct(in) }, func(in Iterator) Iterator { return newRefDistinct(in) }},
		shapingCase{"Distinct over (s, f)",
			func(in Iterator) Iterator { return NewDistinct(NewProject(in, proj)) },
			func(in Iterator) Iterator { return newRefDistinct(NewProject(in, proj)) }})
	return cases
}

// checkShaping runs every shaping case over rows served in batches cut to
// the given sizes and fails unless the typed plan returns the reference's
// rows, in the reference's order and of its kinds, and does again when
// opened a second time.
func checkShaping(t *testing.T, what string, rows []tuple.Row, cuts ...int) {
	t.Helper()
	batches := chopped(shapingSchema, rows, cuts...)
	for _, c := range shapingCases() {
		want, err := Collect(c.ref(NewBatchValues(shapingSchema, batches)))
		if err != nil {
			t.Fatalf("%s, %s: reference: %v", what, c.name, err)
		}
		typed := c.typed(NewBatchValues(shapingSchema, batches))
		for pass := 0; pass < 2; pass++ {
			got, err := Collect(typed)
			if err != nil {
				t.Fatalf("%s, %s: %v", what, c.name, err)
			}
			sameRowsInOrder(t, fmt.Sprintf("%s, %s, pass %d", what, c.name, pass), got, want)
			for r := range got {
				for i, v := range got[r] {
					if v.K != want[r][i].K {
						t.Fatalf("%s, %s: row %d column %d is %v, reference %v", what, c.name, r, i, v.K, want[r][i].K)
					}
				}
			}
		}
	}
}

// TestShapingMatchesRowReference: HashAgg, Sort and Distinct over typed
// columns return what the row-at-a-time operators they replaced return,
// in the same order — over inputs of 0, 1, 1023, 1024 and 1025 rows (one
// full output batch and one row either side) served as whole batches and
// as ragged cuts.
func TestShapingMatchesRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, n := range []int{0, 1, 1023, 1024, 1025} {
		rows := shapingRows(n, rng.Intn)
		checkShaping(t, fmt.Sprintf("%d rows in 1024s", n), rows, 1024)
		checkShaping(t, fmt.Sprintf("%d rows in ragged batches", n), rows, 1, 37, 600)
	}
}

// FuzzShapingMatchesRowReference: the differential above over inputs the
// fuzzer draws, every byte choosing one cell's value; the first byte
// chooses the batch cut.
func FuzzShapingMatchesRowReference(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 5, 5, 5, 5, 5})
	f.Add([]byte{1, 2, 2, 2, 2, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 2, 1, 3, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		cut, cells := int(data[0])%64+1, data[1:]
		pick := func(n int) int {
			if len(cells) == 0 {
				return 0
			}
			b := cells[0]
			cells = cells[1:]
			return int(b) % n
		}
		checkShaping(t, "fuzzed", shapingRows(len(cells)/5, pick), cut)
	})
}
