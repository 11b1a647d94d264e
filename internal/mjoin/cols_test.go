package mjoin

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/tuple"
)

// TestColsNarrowTheOutput: Relation.Cols is a physical projection. The
// output schema is the concatenation of the legs' projected schemas, cache
// entries and output rows are that wide, and the rows are the Cols = nil
// run's rows restricted to those columns — over materialized and lazily
// decoded sources.
func TestColsNarrowTheOutput(t *testing.T) {
	specs := []relSpec{
		{name: "a", col: "ak", keys: seqKeys(40), perSeg: 10},
		{name: "b", col: "bk", keys: seqKeys(40), perSeg: 20},
	}
	for name, build := range map[string]func(testing.TB, []relSpec) (*catalog.Catalog, map[segment.ObjectID]*segment.Segment){"mem": buildDB, "v2": lazyDB} {
		cat, store := build(t, specs)
		bSch := cat.MustTable("b").Schema
		mk := func(project bool) *Query {
			q := twoWayQuery(cat)
			q.Relations[1].Filter = expr.ColGE(bSch, "bk", tuple.Int(7))
			if project {
				q.Relations[0].Cols = []int{0} // ak; ak_tag is not read
				q.Relations[1].Cols = []int{0, 1}
			}
			return q
		}
		narrowQ := mk(true)
		if got, want := narrowQ.OutputSchema().ColumnNames(), []string{"ak", "bk", "bk_tag"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: output schema %v, want %v", name, got, want)
		}
		m, err := NewStream(narrowQ, DefaultConfig(3), &scriptSource{store: store})
		if err != nil {
			t.Fatal(err)
		}
		m.onSubplan = func(entries []*cacheEntry) {
			if w := entries[0].batch.Schema().Len(); w != 1 {
				t.Fatalf("%s: cache entry of relation a is %d columns wide, want 1", name, w)
			}
		}
		var narrow []tuple.Row
		for {
			b, ok, err := m.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if b.Schema().Len() != 3 {
				t.Fatalf("%s: output chunk is %d columns wide, want 3", name, b.Schema().Len())
			}
			narrow = b.AppendRows(narrow)
		}
		wide, err := Run(mk(false), DefaultConfig(3), &scriptSource{store: store})
		if err != nil {
			t.Fatal(err)
		}
		if len(narrow) != 33 || len(wide.Rows) != 33 {
			t.Fatalf("%s: %d narrow and %d wide rows, want 33 each", name, len(narrow), len(wide.Rows))
		}
		for i, r := range wide.Rows {
			if want := (tuple.Row{r[0], r[2], r[3]}); !reflect.DeepEqual(narrow[i], want) {
				t.Fatalf("%s: row %d = %v, want %v", name, i, narrow[i], want)
			}
		}
	}
}

// TestColsValidated: a query whose Cols are malformed, or leave out a column
// a join condition or the relation's filter reads, is rejected when it is
// validated — nothing reads a column that is not there at run time.
func TestColsValidated(t *testing.T) {
	cat, _ := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(4), perSeg: 2},
		{name: "b", col: "bk", keys: seqKeys(4), perSeg: 2},
	})
	aSch := cat.MustTable("a").Schema
	cases := []struct {
		name string
		edit func(q *Query)
		want string
	}{
		{"out of range", func(q *Query) { q.Relations[0].Cols = []int{0, 2} }, "must ascend"},
		{"negative", func(q *Query) { q.Relations[0].Cols = []int{-1} }, "must ascend"},
		{"descending", func(q *Query) { q.Relations[0].Cols = []int{1, 0} }, "must ascend"},
		{"duplicate", func(q *Query) { q.Relations[0].Cols = []int{0, 0} }, "must ascend"},
		{"left key left out", func(q *Query) { q.Relations[0].Cols = []int{1} }, `column "ak" not in accumulated schema`},
		{"right key left out", func(q *Query) { q.Relations[1].Cols = []int{1} }, `column "bk" not among the columns`},
		{"filter column left out", func(q *Query) {
			q.Relations[0].Cols = []int{0}
			q.Relations[0].Filter = expr.ColEq(aSch, "ak_tag", tuple.Str("a1"))
		}, "filter reads [ak_tag]"},
		{"output column left out", func(q *Query) {
			q.Relations[0].Cols = []int{0}
			q.Out = []string{"ak_tag"}
		}, `output column "ak_tag"`},
	}
	for _, tc := range cases {
		q := twoWayQuery(cat)
		tc.edit(q)
		if _, err := q.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", tc.name, err, tc.want)
		}
		if _, err := Run(q, DefaultConfig(10), &scriptSource{}); err == nil {
			t.Errorf("%s: Run accepted the query", tc.name)
		}
	}
}

// TestOutNarrowsEveryStage: over probeMatrix, a query whose Out names two
// columns returns the Out = nil run's rows restricted to those two, in the
// same order, and its cache entries keep only what a later join or the
// output reads: a's key and tag, b's key, c's key.
func TestOutNarrowsEveryStage(t *testing.T) {
	probeMatrix(t, func(label string, cfg Config, memQ, v2Q *Query, memSrc, v2Src func() Source) {
		for _, run := range []struct {
			name string
			q    *Query
			src  func() Source
		}{{"mem", memQ, memSrc}, {"v2", v2Q, v2Src}} {
			wide, err := Run(run.q, cfg, run.src())
			if err != nil {
				t.Fatal(err)
			}
			q := *run.q
			q.Out = []string{"k2", "k0_tag"}
			m, err := NewStream(&q, cfg, run.src())
			if err != nil {
				t.Fatal(err)
			}
			m.onSubplan = func(entries []*cacheEntry) {
				for r, want := range []int{2, 1, 1} {
					if w := entries[r].batch.Schema().Len(); w != want {
						t.Fatalf("%s %s: relation %d's cache entry is %d columns wide, want %d", label, run.name, r, w, want)
					}
				}
			}
			narrow := drain(t, m)
			if got := m.Schema().ColumnNames(); !reflect.DeepEqual(got, []string{"k0_tag", "k2"}) {
				t.Fatalf("%s %s: output schema %v, want [k0_tag k2]", label, run.name, got)
			}
			if len(narrow) != len(wide.Rows) || len(narrow) == 0 {
				t.Fatalf("%s %s: %d rows with Out, %d without", label, run.name, len(narrow), len(wide.Rows))
			}
			tag, k2 := wide.Schema.MustColIndex("k0_tag"), wide.Schema.MustColIndex("k2")
			for i, r := range wide.Rows {
				if want := (tuple.Row{r[tag], r[k2]}); !reflect.DeepEqual(narrow[i], want) {
					t.Fatalf("%s %s: row %d = %v, want %v", label, run.name, i, narrow[i], want)
				}
			}
		}
	})
}
