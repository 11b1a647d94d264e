package sql_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/mjoin"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// The differential suite proves the execution core end-to-end: for
// representative scan, filter, join, aggregation and sort queries, both
// engines must produce identical results — the vanilla pull plan
// (ModeVanilla's executor) and the out-of-order MJoin (ModeSkipper's
// executor, fed a scrambled arrival order).

// diffQueries are the representative shapes. orderSensitive marks queries
// whose ORDER BY fully determines the output order (unique sort keys), so
// results compare positionally; the rest compare as multisets.
var diffQueries = []struct {
	name           string
	query          string
	orderSensitive bool
}{
	{"scan-filter-project", "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 1000.0 ORDER BY o_orderkey", true},
	{"join-sort-limit", "SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY n_name LIMIT 8", true},
	{"join-agg-sort", "SELECT l_shipmode, COUNT(*) AS n, SUM(l_quantity) AS q FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY l_shipmode ORDER BY l_shipmode", true},
	{"distinct", "SELECT DISTINCT o_orderpriority FROM orders", false},
	{"global-agg", "SELECT COUNT(*) AS n, MIN(l_quantity) AS lo, MAX(l_quantity) AS hi FROM lineitem", false},
	{"post-join-filter", "SELECT c_custkey, o_orderkey FROM customer, orders WHERE c_custkey = o_custkey AND o_orderkey > c_nationkey", false},
}

// scrambledSource delivers requested objects in a deterministic shuffled
// order — the out-of-order arrivals the MJoin state manager is built for.
type scrambledSource struct {
	store map[segment.ObjectID]*segment.Segment
	rng   *rand.Rand
	queue []*segment.Segment
}

func (s *scrambledSource) Request(objs []segment.ObjectID) {
	order := make([]segment.ObjectID, len(objs))
	copy(order, objs)
	s.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, id := range order {
		s.queue = append(s.queue, s.store[id])
	}
}

func (s *scrambledSource) NextArrival() (*segment.Segment, error) {
	sg := s.queue[0]
	s.queue = s.queue[1:]
	return sg, nil
}

func canonical(rows []tuple.Row, orderSensitive bool) []string {
	out := render(rows)
	if !orderSensitive {
		sort.Strings(out)
	}
	return out
}

func TestDifferentialRowVsBatchBothEngines(t *testing.T) {
	pl, ds := tpchPlanner(t)
	for _, tc := range diffQueries {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			spec, err := pl.Plan(tc.query)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}

			// Vanilla executor: plan-order pull over the in-memory store.
			ctx := engine.NewTestCtx(ds.Store)
			it, err := skipper.BuildPullPlan(ctx, spec.Join)
			if err != nil {
				t.Fatal(err)
			}
			if spec.Shape != nil {
				it = spec.Shape(it)
			}
			vanillaRows, err := engine.Collect(it)
			if err != nil {
				t.Fatal(err)
			}

			// Skipper executor: MJoin over scrambled arrivals, then the
			// same shaping stage over the result bridge.
			src := &scrambledSource{store: ds.Store, rng: rand.New(rand.NewSource(7))}
			res, err := mjoin.Run(spec.Join, mjoin.DefaultConfig(len(spec.Join.Objects())), src)
			if err != nil {
				t.Fatal(err)
			}
			it = engine.NewValues(spec.Join.OutputSchema(), res.Rows)
			if spec.Shape != nil {
				it = spec.Shape(it)
			}
			skipperRows, err := engine.Collect(it)
			if err != nil {
				t.Fatal(err)
			}

			want := canonical(vanillaRows, tc.orderSensitive)
			if len(want) == 0 {
				t.Fatalf("query produced no rows; differential check is vacuous")
			}
			if got := canonical(skipperRows, tc.orderSensitive); !reflect.DeepEqual(got, want) {
				t.Fatalf("skipper differs from vanilla:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestDifferentialClusterModes runs the same queries through the full
// cluster harness in both modes and checks the reported row counts against
// the locally evaluated ground truth.
func TestDifferentialClusterModes(t *testing.T) {
	pl, ds := tpchPlanner(t)
	for _, tc := range diffQueries {
		spec, err := pl.Plan(tc.query)
		if err != nil {
			t.Fatalf("%s: plan: %v", tc.name, err)
		}
		truth, err := workload.Evaluate(ds, spec)
		if err != nil {
			t.Fatalf("%s: evaluate: %v", tc.name, err)
		}
		for _, mode := range []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper} {
			st := make(map[segment.ObjectID]*segment.Segment)
			ds.MergeInto(st)
			c := &skipper.Client{Tenant: 0, Mode: mode, Catalog: ds.Catalog,
				Queries: []skipper.QuerySpec{spec}, CacheObjects: len(spec.Join.Objects())}
			res, err := (&skipper.Cluster{Clients: []*skipper.Client{c}, Store: st}).Run()
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.name, mode, err)
			}
			if res.Clients[0].Rows != int64(len(truth)) {
				t.Fatalf("%s/%v: %d rows, ground truth %d", tc.name, mode, res.Clients[0].Rows, len(truth))
			}
		}
	}
}
