package sql_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sql"
	"repro/internal/workload"
)

// workloadStatements returns the SQL text of every query the workload
// package plans: the literal handed to each of its mustPlan calls, read
// from its source so the seeds follow the queries. A text built with
// fmt.Sprintf has its %s verbs filled with a date.
func workloadStatements(f *testing.F) []string {
	f.Helper()
	files, err := filepath.Glob("../workload/*.go")
	if err != nil || len(files) == 0 {
		f.Fatalf("workload sources: %v (%d files)", err, len(files))
	}
	var texts []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			f.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 3 {
				return true
			}
			if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "mustPlan" {
				return true
			}
			arg := call.Args[2]
			if sprintf, ok := arg.(*ast.CallExpr); ok && len(sprintf.Args) > 0 {
				arg = sprintf.Args[0]
			}
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				text, err := strconv.Unquote(lit.Value)
				if err != nil {
					f.Fatal(err)
				}
				texts = append(texts, strings.ReplaceAll(text, "%s", "1994-01-01"))
			}
			return true
		})
	}
	if len(texts) < 10 {
		f.Fatalf("found %d workload statements, want every mustPlan call's", len(texts))
	}
	return texts
}

// FuzzPlan plans arbitrary statements against a small TPC-H catalog: the
// planner may refuse a statement, never panic on one. Seeded with the
// workload's queries and with statements that once panicked in the
// shaping stage's schemas.
func FuzzPlan(f *testing.F) {
	for _, q := range workloadStatements(f) {
		f.Add(q)
	}
	f.Add("SELECT n_name, n_name FROM nation")
	f.Add("SELECT l_shipmode, COUNT(*) AS l_shipmode FROM lineitem GROUP BY l_shipmode")
	f.Add("SELECT l_shipmode, COUNT(*) FROM lineitem GROUP BY l_shipmode, l_shipmode")
	f.Add("SELECT DISTINCT n_name AS a, n_regionkey AS b FROM nation ORDER BY a LIMIT 3")
	pl := &sql.Planner{Catalog: workload.TPCH(0, workload.TPCHConfig{SF: 1, RowsPerObject: 4, Seed: 1}).Catalog}
	f.Fuzz(func(t *testing.T, q string) {
		_, _ = pl.Plan(q)
	})
}
