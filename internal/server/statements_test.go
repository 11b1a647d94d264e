package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/sql"
	"repro/internal/workload"
)

// sharedStatements are planned once by the server and then run by every
// session: a join with GROUP BY and ORDER BY, the dashboard's 6-way join
// and a SELECT DISTINCT … ORDER BY. Each orders its rows, so responses
// compare as text.
var sharedStatements = []string{
	`SELECT l_shipmode, COUNT(*) AS lines, SUM(l_quantity) AS qty FROM lineitem, orders
		WHERE l_orderkey = o_orderkey AND l_shipdate BETWEEN '1994-01-01' AND '1996-12-31'
		GROUP BY l_shipmode ORDER BY l_shipmode`,
	`SELECT n_name, COUNT(*) AS lines, SUM(l_quantity) AS qty
		FROM customer, orders, lineitem, supplier, nation, region
		WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_suppkey = s_suppkey
		AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
		AND o_orderdate BETWEEN '1992-01-01' AND '1998-12-31'
		AND l_shipdate BETWEEN '1994-01-01' AND '1996-12-31'
		GROUP BY n_name ORDER BY n_name`,
	`SELECT DISTINCT r_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY r_name`,
}

// TestStatementCacheSharedAcrossSessions: four sessions over two tenants
// run the same three statements at once, each session starting at another
// one. The server plans each statement once, every other request reads the
// cached plan — the same spec, its join compiled once, run by several
// sessions at a time — and every response is the reference's rows.
func TestStatementCacheSharedAcrossSessions(t *testing.T) {
	const sessions, rounds = 4, 3
	s, err := New(servingConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ds := s.cfg.Dataset
	want := make([]string, len(sharedStatements))
	for i, text := range sharedStatements {
		spec, err := (&sql.Planner{Catalog: ds.Catalog}).Plan(text)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := workload.Evaluate(ds, spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Fatalf("statement %d selects no rows; the comparison would be vacuous", i)
		}
		rendered := make([]string, len(rows))
		for j, r := range rows {
			rendered[j] = r.String()
		}
		want[i] = strings.Join(rendered, "\n")
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions*rounds*len(sharedStatements))
	for c := 0; c < sessions; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sess, tenant := s.NewSession(), c%2
			for r := 0; r < rounds; r++ {
				for k := range sharedStatements {
					i := (c + k) % len(sharedStatements)
					resp, _ := sess.RoundTrip(&Request{ID: fmt.Sprint(i), Tenant: &tenant, SQL: sharedStatements[i]})
					switch {
					case resp.Type != "result":
						errs <- fmt.Errorf("session %d statement %d: %s: %s", c, i, resp.Code, resp.Error)
					case strings.Join(resp.Rows, "\n") != want[i]:
						errs <- fmt.Errorf("session %d statement %d: rows diverge from the reference:\ngot:  %v\nwant: %s", c, i, resp.Rows, want[i])
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	requests := int64(sessions * rounds * len(sharedStatements))
	if hits, misses := s.stmtHits.Value(), s.stmtMisses.Value(); misses != int64(len(sharedStatements)) || hits != requests-misses {
		t.Errorf("statement cache: %d hits, %d misses; want %d, %d", hits, misses, requests-int64(len(sharedStatements)), len(sharedStatements))
	}
	if n := len(s.stmts); n != len(sharedStatements) {
		t.Errorf("statement cache holds %d statements, want %d", n, len(sharedStatements))
	}
}

// TestStatementCacheBoundAndErrors: the cache holds at most maxStatements
// plans — a full cache starts over with the statement just planned — and
// never a statement that failed to plan.
func TestStatementCacheBoundAndErrors(t *testing.T) {
	s, err := New(servingConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.plan("SELECT nope FROM region"); err == nil {
			t.Fatal("planning an unknown column succeeded")
		}
	}
	if misses, n := s.stmtMisses.Value(), len(s.stmts); misses != 2 || n != 0 {
		t.Fatalf("after two failed plans: %d misses, %d cached; want 2, 0", misses, n)
	}
	text := func(i int) string { return fmt.Sprintf("SELECT r_name FROM region WHERE r_regionkey = %d", i) }
	for i := 0; i < maxStatements; i++ {
		if _, err := s.plan(text(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.stmts); n != maxStatements {
		t.Fatalf("cache holds %d statements, want the bound %d", n, maxStatements)
	}
	if _, err := s.plan(text(maxStatements)); err != nil || len(s.stmts) != 1 {
		t.Fatalf("a full cache took one more statement: %v, %d cached; want 1", err, len(s.stmts))
	}
	if _, err := s.plan(text(maxStatements)); err != nil || s.stmtHits.Value() != 1 {
		t.Fatalf("the newest statement missed: %v, %d hits", err, s.stmtHits.Value())
	}
}
