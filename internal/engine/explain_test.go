package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/tuple"
)

func TestExplainTree(t *testing.T) {
	tm, store := buildTable(t, "t", kvRows(10), 3)
	ctx := NewTestCtx(store)
	plan := NewLimit(
		NewSort(
			NewProject(
				NewFilter(NewSeqScan(ctx, tm), expr.ColGE(tm.Schema, "k", tuple.Int(2))),
				[]ProjectCol{{Name: "k2", Kind: tuple.KindInt64, E: expr.Bind(tm.Schema, "k")}},
			),
			[]SortKey{{E: expr.NewCol(0, "k2"), Desc: true}},
		),
		3,
	)
	out := Explain(plan)
	wantLines := []string{"Limit 3", "Sort k2 desc", "Project k2=k", "Filter", "SeqScan t (4 segments, 10 rows)"}
	for _, w := range wantLines {
		if !strings.Contains(out, w) {
			t.Fatalf("explain missing %q:\n%s", w, out)
		}
	}
	// Indentation deepens down the tree.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
	for i := 1; i < len(lines); i++ {
		if len(lines[i])-len(strings.TrimLeft(lines[i], " ")) <= len(lines[i-1])-len(strings.TrimLeft(lines[i-1], " ")) {
			t.Fatalf("indentation not increasing:\n%s", out)
		}
	}
}

func TestExplainJoinAndAgg(t *testing.T) {
	sch := tuple.NewSchema(tuple.Column{Name: "k", Kind: tuple.KindInt64})
	sch2 := tuple.NewSchema(tuple.Column{Name: "k2", Kind: tuple.KindInt64})
	join := JoinOn(NewValues(sch, nil), NewValues(sch2, nil), [][2]string{{"k", "k2"}})
	agg := NewHashAgg(join, nil, []AggSpec{{Kind: AggCount, Name: "n"}})
	out := Explain(agg)
	for _, w := range []string{"HashAgg count(*)", "HashJoin on k=k2", "Values (0 rows)"} {
		if !strings.Contains(out, w) {
			t.Fatalf("explain missing %q:\n%s", w, out)
		}
	}
}

// TestEveryOperatorIsAPlanNode: each operator type of the package (every
// non-test type with a NextBatch method, found by parsing the sources)
// must appear here and implement planNode, or plan walks stop at it the
// way they used to stop at Distinct.
func TestEveryOperatorIsAPlanNode(t *testing.T) {
	tm, store := buildTable(t, "t", kvRows(4), 2)
	scan := func() Iterator { return NewSeqScan(NewTestCtx(store), tm) }
	k := expr.Bind(tm.Schema, "k")
	operators := map[string]Iterator{
		"SeqScan":  scan(),
		"Filter":   NewFilter(scan(), expr.ColGE(tm.Schema, "k", tuple.Int(2))),
		"Project":  NewProject(scan(), []ProjectCol{{Name: "k", Kind: tuple.KindInt64, E: k}}),
		"Limit":    NewLimit(scan(), 1),
		"Distinct": NewDistinct(scan()),
		"Values":   NewValues(tm.Schema, nil),
		"HashJoin": JoinOn(scan(), scan(), [][2]string{{"k", "k"}}),
		"HashAgg":  NewHashAgg(scan(), nil, []AggSpec{{Kind: AggCount, Name: "n"}}),
		"Sort":     NewSort(scan(), []SortKey{{E: k}}),
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, f := range pkgs["engine"].Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name != "NextBatch" || fn.Recv == nil {
				continue
			}
			name := fn.Recv.List[0].Type.(*ast.StarExpr).X.(*ast.Ident).Name
			found++
			op, ok := operators[name]
			if !ok {
				t.Errorf("operator %s is missing from this table", name)
			} else if _, ok := op.(planNode); !ok {
				t.Errorf("operator %s does not implement planNode", name)
			}
		}
	}
	if found != len(operators) {
		t.Errorf("found %d operator types in the sources, the table lists %d", found, len(operators))
	}
	// The label EXPLAIN prints for each operator.
	want := map[string]string{
		"SeqScan":  "SeqScan t (2 segments, 4 rows)",
		"Filter":   "Filter (k >= 2)",
		"Project":  "Project k=k",
		"Limit":    "Limit 1",
		"Distinct": "Distinct",
		"Values":   "Values (0 rows)",
		"HashJoin": "HashJoin on k=k",
		"HashAgg":  "HashAgg count(*)",
		"Sort":     "Sort k asc",
	}
	for name, op := range operators {
		first, _, _ := strings.Cut(Explain(op), "\n")
		if first != "-> "+want[name] {
			t.Errorf("%s prints %q, want %q", name, first, "-> "+want[name])
		}
	}
}
