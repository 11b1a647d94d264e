package mjoin

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/segment"
	"repro/internal/tuple"
)

var updateDecisions = flag.Bool("update", false, "rewrite testdata/decisions.golden from this tree")

// victimLog wraps an eviction policy and records, per decision, the
// arriving object and the victim the wrapped policy picked.
type victimLog struct {
	EvictionPolicy
	picks []string
}

func (p *victimLog) PickVictim(cached []segment.ObjectID, arriving segment.ObjectID, info PolicyInfo) segment.ObjectID {
	v := p.EvictionPolicy.PickVictim(cached, arriving, info)
	p.picks = append(p.picks, fmt.Sprintf("%s%d>%s%d", arriving.Table, arriving.Index, v.Table, v.Index))
	return v
}

// decisionQueries are the pinned runs' joins: a two-way and a three-way
// chain over clustered keys, filtered so that some segments are empty after
// the filter (runtime pruning) and some are provably so from their zone maps
// (data skipping); the three-way one joins many-to-many.
func decisionQueries(t *testing.T) ([]*Query, map[segment.ObjectID]*segment.Segment) {
	dup := func(n, k int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i / k)
		}
		return out
	}
	cat, store := buildDB(t, []relSpec{
		{name: "a", col: "ak", keys: seqKeys(24), perSeg: 4}, // 6 segments
		{name: "b", col: "bk", keys: seqKeys(24), perSeg: 6}, // 4 segments
		{name: "c", col: "ck", keys: seqKeys(20), perSeg: 5}, // 4 segments
		{name: "d", col: "dk", keys: dup(18, 2), perSeg: 6},  // 3 segments, keys 0..8 twice
		{name: "e", col: "ek", keys: dup(20, 4), perSeg: 4},  // 5 segments, keys 0..4 four times
	})
	rel := func(cat *catalog.Catalog, name string, f func(*tuple.Schema) expr.Expr) Relation {
		tm := cat.MustTable(name)
		r := Relation{Table: tm, Filter: f(tm.Schema)}
		attachPruner(t, &r)
		return r
	}
	two := &Query{
		ID: "two",
		Relations: []Relation{
			rel(cat, "a", func(s *tuple.Schema) expr.Expr { return expr.ColBetween(s, "ak", tuple.Int(5), tuple.Int(17)) }),
			rel(cat, "b", func(s *tuple.Schema) expr.Expr { return expr.ColLT(s, "bk", tuple.Int(13)) }),
		},
		Joins: []JoinCond{{Rel: 1, LeftCol: "ak", RightCol: "bk"}},
	}
	three := &Query{
		ID: "three",
		Relations: []Relation{
			rel(cat, "c", func(s *tuple.Schema) expr.Expr { return expr.ColLT(s, "ck", tuple.Int(15)) }),
			rel(cat, "d", func(s *tuple.Schema) expr.Expr { return expr.ColLT(s, "dk", tuple.Int(7)) }),
			rel(cat, "e", func(s *tuple.Schema) expr.Expr { return expr.ColGE(s, "ek", tuple.Int(1)) }),
		},
		Joins: []JoinCond{
			{Rel: 1, LeftCol: "ck", RightCol: "dk"},
			{Rel: 2, LeftCol: "dk", RightCol: "ek"},
		},
	}
	return []*Query{two, three}, store
}

// decisionOrders are the pinned runs' arrival orders, each a fresh source
// per run: request order, two seeded shuffles, each cycle reversed, the
// adversarial order that engages pinning, and request order with the first
// object of every cycle delivered twice.
var decisionOrders = []struct {
	name string
	src  func(store map[segment.ObjectID]*segment.Segment) Source
}{
	{"inorder", func(store map[segment.ObjectID]*segment.Segment) Source { return &scriptSource{store: store} }},
	{"shuffle1", func(store map[segment.ObjectID]*segment.Segment) Source { return shuffled(store, 1) }},
	{"shuffle2", func(store map[segment.ObjectID]*segment.Segment) Source { return shuffled(store, 2) }},
	{"reverse", func(store map[segment.ObjectID]*segment.Segment) Source {
		return &scriptSource{store: store, order: func(objs []segment.ObjectID) []segment.ObjectID {
			for i, j := 0, len(objs)-1; i < j; i, j = i+1, j-1 {
				objs[i], objs[j] = objs[j], objs[i]
			}
			return objs
		}}
	}},
	{"adversarial", func(store map[segment.ObjectID]*segment.Segment) Source { return &adversarialSource{store: store} }},
	{"redeliver", func(store map[segment.ObjectID]*segment.Segment) Source {
		return &dupSource{scriptSource: scriptSource{store: store}}
	}},
}

func shuffled(store map[segment.ObjectID]*segment.Segment, seed int64) Source {
	rng := rand.New(rand.NewSource(seed))
	return &scriptSource{store: store, order: func(objs []segment.ObjectID) []segment.ObjectID {
		rng.Shuffle(len(objs), func(i, j int) { objs[i], objs[j] = objs[j], objs[i] })
		return objs
	}}
}

// TestStateManagerDecisionsPinned runs every pinned query under every
// arrival order, cache size (R, R+1 and 2R objects for R relations),
// eviction policy and pruning setting, and compares one line per run — its
// Stats (less the byte counts, zero over in-memory segments, and the
// wall-clock decode time), the digest of its eviction decisions in order and
// the digest of its output rows in order — with testdata/decisions.golden. Any change to what the state manager requests,
// admits, evicts, pins or executes, or to the order it executes in, shows
// up as a changed line. -update rewrites the golden.
func TestStateManagerDecisionsPinned(t *testing.T) {
	queries, store := decisionQueries(t)
	var out bytes.Buffer
	for _, q := range queries {
		r := len(q.Relations)
		for _, order := range decisionOrders {
			for _, cache := range []int{r, r + 1, 2 * r} {
				for _, pol := range []EvictionPolicy{MaxProgress{}, MaxPending{}, LRU{}} {
					for _, prune := range []bool{true, false} {
						for _, skip := range []bool{true, false} {
							cfg := DefaultConfig(cache)
							log := &victimLog{EvictionPolicy: pol}
							cfg.Policy, cfg.Pruning, cfg.StatsPruning, cfg.MaxCycles = log, prune, skip, 100000
							fmt.Fprintf(&out, "%s %s c%d %s prune=%v skip=%v: ", q.ID, order.name, cache, pol.Name(), prune, skip)
							res, err := Run(q, cfg, order.src(store))
							if err != nil {
								fmt.Fprintf(&out, "error %v\n", err)
								continue
							}
							st := res.Stats
							h := fnv.New64a()
							for _, row := range res.Rows {
								fmt.Fprintln(h, row.String())
							}
							fmt.Fprintf(&out, "req=%d cyc=%d arr=%d dec=%d ev=%d sub=%d exe=%d pru=%d osk=%d ssk=%d pin=%d rows=%d/%016x victims=%d/%016x\n",
								st.Requests, st.Cycles, st.Arrivals, st.Pipe.Decodes, st.Evictions, st.SubplansTotal, st.SubplansExecuted,
								st.SubplansPruned, st.ObjectsSkipped, st.SubplansSkipped, st.PinnedCycles,
								st.ResultRows, h.Sum64(), len(log.picks), digest(log.picks))
						}
					}
				}
			}
		}
	}
	path := filepath.Join("testdata", "decisions.golden")
	if *updateDecisions {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(exp)) {
		g, e := "", ""
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			t.Fatalf("state manager decisions differ from %s at line %d:\n got %s\nwant %s", path, i+1, g, e)
		}
	}
	t.Fatalf("state manager decisions differ from %s", path)
}

func digest(lines []string) uint64 {
	h := fnv.New64a()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return h.Sum64()
}
