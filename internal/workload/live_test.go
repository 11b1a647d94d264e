package workload_test

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/objstore"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/sql"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// The tests in this file hold the join stages, which carry only what is
// read above them (mjoin.Query.Out), to results no engine computes, and a
// shape to the join schema it was bound against.

// TestShapeBoundToWiderSchemaFails: a spec whose shape was bound against a
// wider join schema than its join outputs is refused by name before the
// shape runs — on both engines and by the local evaluator. Applied, the
// shape would read whatever sits at the places it bound.
func TestShapeBoundToWiderSchemaFails(t *testing.T) {
	gen := workload.TPCH(0, workload.TPCHConfig{SF: 8, RowsPerObject: 40, Seed: 3})
	spec := workload.Q12(gen.Catalog)
	wideQ := *spec.Join
	wideQ.Out = nil
	wide := wideQ.OutputSchema()
	if wide.Len() <= spec.Join.OutputSchema().Len() {
		t.Fatalf("Q12's Out does not narrow its output %v", wide.ColumnNames())
	}
	commit := expr.Bind(wide, "l_commitdate")
	stale := skipper.QuerySpec{Name: "stale", Join: spec.Join, Bound: wide, Shape: func(in engine.Iterator) engine.Iterator {
		return engine.NewProject(in, []engine.ProjectCol{{Name: "d", Kind: tuple.KindDate, E: commit}})
	}}
	refused := func(what string, err error) {
		t.Helper()
		var se *skipper.SchemaError
		if !errors.As(err, &se) || !strings.Contains(err.Error(), "l_commitdate") {
			t.Errorf("%s: %v, want a *skipper.SchemaError naming l_commitdate", what, err)
		}
	}
	_, err := workload.Evaluate(gen, stale)
	refused("Evaluate", err)
	for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
		client := &skipper.Client{Mode: mode, Catalog: gen.Catalog, Queries: []skipper.QuerySpec{stale}, CacheObjects: 2}
		_, err := (&skipper.Cluster{Clients: []*skipper.Client{client}, Store: gen.Store}).Run()
		refused(mode.String(), err)
	}
}

// tableRows returns a table's rows straight from a generated dataset's
// (never encoded) segments.
func tableRows(ds *workload.Dataset, table string) []tuple.Row {
	var rows []tuple.Row
	for _, id := range ds.Catalog.MustTable(table).Objects {
		rows = append(rows, ds.Store[id].Rows...)
	}
	return rows
}

// money renders an amount to the cent: Q5's sums are sums of two-decimal
// amounts, added in whatever order an evaluation picks.
func money(f float64) string { return strconv.FormatFloat(f, 'f', 2, 64) }

// cents renders rows, floats through money.
func cents(rows []tuple.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
			if v.K == tuple.KindFloat64 {
				parts[j] = money(v.F)
			}
		}
		out[i] = strings.Join(parts, " | ")
	}
	return out
}

// TestJoinsMatchNestedLoops checks Q12, Q5 and the join+agg SQL at a fixed
// seed against nested loops over the generated rows: an oracle that shares
// no code with either engine, nor with workload.Evaluate, which runs the
// pull plan itself. Both engines run over the v2 store, and so does
// Evaluate.
func TestJoinsMatchNestedLoops(t *testing.T) {
	gen := workload.TPCH(0, workload.TPCHConfig{SF: 8, RowsPerObject: 1000, Seed: 3})
	ds, err := objstore.ReencodeDataset(gen, segment.FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	L, O := workload.SchemaLineitem.MustColIndex, workload.SchemaOrders.MustColIndex
	lOrder, lSupp, lQty, lPrice, lDisc := L("l_orderkey"), L("l_suppkey"), L("l_quantity"), L("l_extendedprice"), L("l_discount")
	lShip, lCommit, lReceipt, lMode := L("l_shipdate"), L("l_commitdate"), L("l_receiptdate"), L("l_shipmode")
	oKey, oCust, oDate, oPrio := O("o_orderkey"), O("o_custkey"), O("o_orderdate"), O("o_orderpriority")
	cKey, cNation := workload.SchemaCustomer.MustColIndex("c_custkey"), workload.SchemaCustomer.MustColIndex("c_nationkey")
	sKey, sNation := workload.SchemaSupplier.MustColIndex("s_suppkey"), workload.SchemaSupplier.MustColIndex("s_nationkey")
	N, R := workload.SchemaNation.MustColIndex, workload.SchemaRegion.MustColIndex
	y94, y95 := tuple.Date(1994, 1, 1).I, tuple.Date(1995, 1, 1).I
	in1994 := func(d tuple.Value) bool { return d.I >= y94 && d.I < y95 }

	// q12[mode] counts high- and low-priority lines, joinAgg[mode] lines and
	// quantity, revenue[nation] sums Q5's local-supplier revenue.
	q12, joinAgg, revenue := map[string][2]float64{}, map[string][2]int64{}, map[string]float64{}
	orders, customers, suppliers := tableRows(gen, "orders"), tableRows(gen, "customer"), tableRows(gen, "supplier")
	nations, regions := tableRows(gen, "nation"), tableRows(gen, "region")
	for _, l := range tableRows(gen, "lineitem") {
		for _, o := range orders {
			if o[oKey].I != l[lOrder].I {
				continue
			}
			mode := l[lMode].S
			a := joinAgg[mode]
			joinAgg[mode] = [2]int64{a[0] + 1, a[1] + l[lQty].I}
			if (mode == "MAIL" || mode == "SHIP") && l[lCommit].I < l[lReceipt].I && l[lShip].I < l[lCommit].I && in1994(l[lReceipt]) {
				c, p := q12[mode], o[oPrio].S
				if p == "1-URGENT" || p == "2-HIGH" {
					c[0]++
				} else {
					c[1]++
				}
				q12[mode] = c
			}
			if !in1994(o[oDate]) {
				continue
			}
			for _, c := range customers {
				if c[cKey].I != o[oCust].I {
					continue
				}
				for _, s := range suppliers {
					if s[sKey].I != l[lSupp].I || s[sNation].I != c[cNation].I {
						continue
					}
					for _, n := range nations {
						if n[N("n_nationkey")].I != s[sNation].I {
							continue
						}
						for _, r := range regions {
							if r[R("r_regionkey")].I == n[N("n_regionkey")].I && r[R("r_name")].S == "ASIA" {
								revenue[n[N("n_name")].S] += l[lPrice].F * (1 - l[lDisc].F)
							}
						}
					}
				}
			}
		}
	}
	var want12, want5, wantJoinAgg []string
	for _, mode := range slices.Sorted(maps.Keys(q12)) {
		want12 = append(want12, mode+" | "+money(q12[mode][0])+" | "+money(q12[mode][1]))
	}
	names := slices.Collect(maps.Keys(revenue))
	sort.Slice(names, func(i, j int) bool { return revenue[names[i]] > revenue[names[j]] })
	for _, name := range names {
		want5 = append(want5, name+" | "+money(revenue[name]))
	}
	for _, mode := range slices.Sorted(maps.Keys(joinAgg)) {
		wantJoinAgg = append(wantJoinAgg, fmt.Sprintf("%s | %d | %s", mode, joinAgg[mode][0], money(float64(joinAgg[mode][1]))))
	}

	joinAggSpec, err := (&sql.Planner{Catalog: ds.Catalog}).Plan(`SELECT l_shipmode, COUNT(*) AS lines, SUM(l_quantity) AS qty
		FROM lineitem, orders WHERE l_orderkey = o_orderkey
		GROUP BY l_shipmode ORDER BY l_shipmode`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec skipper.QuerySpec
		want []string
	}{{workload.Q12(ds.Catalog), want12}, {workload.Q5(ds.Catalog), want5}, {joinAggSpec, wantJoinAgg}} {
		if len(c.want) == 0 {
			t.Fatalf("%s selects nothing at this seed; the check would be vacuous", c.spec.Name)
		}
		evaluated, err := workload.Evaluate(ds, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string][]tuple.Row{"Evaluate": evaluated}
		for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
			got[mode.String()] = runSpec(t, ds, c.spec, mode, len(c.spec.Join.Relations))
		}
		for name, rows := range got {
			if g := cents(rows); !reflect.DeepEqual(g, c.want) {
				t.Errorf("%s on %s:\n got %q\nwant %q", c.spec.Name, name, g, c.want)
			}
		}
	}
}
