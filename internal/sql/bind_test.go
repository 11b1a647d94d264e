package sql

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/mjoin"
	"repro/internal/tuple"
)

// TestShapeOutsideColsFailsAtBind: a shaping stage binds by name against the
// join's narrow output schema, so a column the leg's Cols leave out is
// refused when the shape is bound — by expr.Bind for a hand-built spec, by
// the binder for a SQL statement — instead of being read as zeros at run
// time.
func TestShapeOutsideColsFailsAtBind(t *testing.T) {
	sch := tuple.NewSchema(
		tuple.Column{Name: "k", Kind: tuple.KindInt64},
		tuple.Column{Name: "v", Kind: tuple.KindString},
	)
	tm := catalog.New(0).MustAddTable("t", sch, nil)
	q := &mjoin.Query{ID: "narrow", Relations: []mjoin.Relation{{Table: tm, Cols: []int{0}}}}
	out, err := q.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if got := out.ColumnNames(); len(got) != 1 || got[0] != "k" {
		t.Fatalf("output schema %v, want [k]", got)
	}

	// Hand-built: expr.Bind resolves against the narrow schema.
	expr.Bind(out, "k")
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(r.(string), `unknown column "v"`) {
				t.Fatalf("expr.Bind of a column outside Cols: recovered %v, want an unknown-column panic", r)
			}
		}()
		expr.Bind(out, "v")
	}()

	// SQL: the planner always puts what a statement reads into Cols, so
	// hand the binder the narrow schema directly.
	b := &binder{tables: []boundTable{{ref: TableRef{Name: "t"}, meta: tm}}, colOwner: map[string]int{"k": 0, "v": 0}}
	for query, wantErr := range map[string]string{
		"SELECT k FROM t ORDER BY k":           "",
		"SELECT k, v FROM t":                   `column "v" not in scope [k]`,
		"SELECT COUNT(*) FROM t GROUP BY v":    `column "v" not in scope`,
		"SELECT k FROM t ORDER BY v":           `column "v" not in scope [k]`,
		"SELECT SUM(k) FROM t WHERE v = 'x'":   "", // a local filter binds against the table schema, not the shape's
		"SELECT MAX(v) AS m FROM t GROUP BY k": `column "v" not in scope [k]`,
	} {
		stmt, err := Parse(query)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		_, err = b.buildShape(stmt, nil, out)
		switch {
		case wantErr == "" && err != nil:
			t.Errorf("%s: %v", query, err)
		case wantErr != "" && (err == nil || !strings.Contains(err.Error(), wantErr)):
			t.Errorf("%s: bound with error %v, want one containing %q", query, err, wantErr)
		}
	}
}
