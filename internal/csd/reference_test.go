package csd

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/segment"
)

// This file keeps the implementations the allocation-free dispatch path
// replaced — the bucket round-robin of orderRequests and the schedulers'
// walk over a sorted copy of the group ids — as the references randomized
// differential tests hold the current code equal to.

// referenceOrder is orderRequests as it was: bucket by query, then by
// table, each in order of first appearance, and emit round-robin across a
// query's tables.
func referenceOrder(reqs []*Request) []*Request {
	type tableQueue struct {
		table string
		reqs  []*Request
	}
	type queryBucket struct {
		id     string
		tables []*tableQueue
		byName map[string]*tableQueue
		total  int
	}
	var queries []*queryBucket
	index := make(map[string]*queryBucket)
	for _, r := range reqs {
		qb, ok := index[r.QueryID]
		if !ok {
			qb = &queryBucket{id: r.QueryID, byName: make(map[string]*tableQueue)}
			index[r.QueryID] = qb
			queries = append(queries, qb)
		}
		tq, ok := qb.byName[r.Object.Table]
		if !ok {
			tq = &tableQueue{table: r.Object.Table}
			qb.byName[r.Object.Table] = tq
			qb.tables = append(qb.tables, tq)
		}
		tq.reqs = append(tq.reqs, r)
		qb.total++
	}
	out := make([]*Request, 0, len(reqs))
	for _, qb := range queries {
		cursors := make([]int, len(qb.tables))
		for emitted := 0; emitted < qb.total; {
			for ti, tq := range qb.tables {
				if cursors[ti] < len(tq.reqs) {
					out = append(out, tq.reqs[cursors[ti]])
					cursors[ti]++
					emitted++
				}
			}
		}
	}
	return out
}

// TestOrderRequestsMatchesReference: 1-64 requests of 1-4 queries over 1-5
// tables, on one device so the scratch carries over from round to round
// the way it does in a run.
func TestOrderRequestsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dev := newRig(DefaultConfig(), nil).csd
	for round := 0; round < 2000; round++ {
		n := 1 + rng.Intn(64)
		queries, tables := 1+rng.Intn(4), 1+rng.Intn(5)
		reqs := make([]*Request, n)
		for i := range reqs {
			reqs[i] = &Request{
				Object:  oid(0, fmt.Sprint("t", rng.Intn(tables)), i),
				QueryID: fmt.Sprint("q", rng.Intn(queries)),
				seq:     i,
			}
		}
		want := referenceOrder(slices.Clone(reqs))
		dev.orderRequests(reqs)
		if !slices.Equal(reqs, want) {
			t.Fatalf("round %d (%d requests, %d queries, %d tables): got %v, want %v",
				round, n, queries, tables, describe(reqs), describe(want))
		}
		for _, k := range dev.order.keyed[:cap(dev.order.keyed)] {
			if k.req != nil {
				t.Fatalf("round %d: the scratch still holds a request", round)
			}
		}
	}
}

func describe(reqs []*Request) []string {
	out := make([]string, len(reqs))
	for i, r := range reqs {
		out[i] = fmt.Sprintf("%s.%s#%d", r.QueryID, r.Object.Table, r.seq)
	}
	return out
}

// TestOrderRequestsAllocatesNothing: once its scratch has grown, ordering
// a round costs no allocation, however many requests it holds.
func TestOrderRequestsAllocatesNothing(t *testing.T) {
	dev := newRig(DefaultConfig(), nil).csd
	reqs := make([]*Request, 64)
	for i := range reqs {
		reqs[i] = &Request{Object: oid(0, fmt.Sprint("t", i%5), i), QueryID: fmt.Sprint("q", i%3)}
	}
	if allocs := testing.AllocsPerRun(10, func() { dev.orderRequests(reqs) }); allocs != 0 {
		t.Fatalf("%v allocations per round of %d requests, want 0", allocs, len(reqs))
	}
}

// referenceSortedGroups is the schedulers' former candidate walk: the
// pending groups other than loaded, ascending.
func referenceSortedGroups(loaded int, pending map[int][]*Request) []int {
	groups := make([]int, 0, len(pending))
	for g := range pending {
		if g != loaded {
			groups = append(groups, g)
		}
	}
	sort.Ints(groups)
	return groups
}

// referenceOldest is the group the sorted walk finds holding the oldest
// pending request among those match accepts.
func referenceOldest(loaded int, pending map[int][]*Request, match func(*Request) bool) int {
	best, bestSeq := -1, int(^uint(0)>>1)
	for _, g := range referenceSortedGroups(loaded, pending) {
		for _, r := range pending[g] {
			if match(r) && r.seq < bestSeq {
				best, bestSeq = g, r.seq
			}
		}
	}
	return best
}

// referenceNextGroup is each policy as it was over that walk: the first
// strictly better candidate in ascending group order wins.
func referenceNextGroup(s Scheduler, loaded int, pending map[int][]*Request, waiting func(string) int) int {
	switch s.(type) {
	case FCFSObject:
		return referenceOldest(loaded, pending, func(*Request) bool { return true })
	case MaxQueries:
		best, bestN := -1, -1
		for _, g := range referenceSortedGroups(loaded, pending) {
			if n := distinctQueries(pending[g]); n > bestN {
				best, bestN = g, n
			}
		}
		return best
	case RankBased:
		best, bestRank, bestN, bestCoal := -1, -1, -1, -1
		for _, g := range referenceSortedGroups(loaded, pending) {
			queries := make(map[string]struct{})
			for _, r := range pending[g] {
				queries[r.QueryID] = struct{}{}
			}
			sumWait := 0
			for q := range queries {
				sumWait += waiting(q)
			}
			rank := len(queries) + sumWait
			coal := coalescedRequests(pending[g])
			if rank > bestRank ||
				(rank == bestRank && len(queries) > bestN) ||
				(rank == bestRank && len(queries) == bestN && coal > bestCoal) {
				best, bestRank, bestN, bestCoal = g, rank, len(queries), coal
			}
		}
		return best
	}
	panic("no reference for " + s.Name())
}

// TestSchedulersMatchSortedWalk: on random pending sets built to tie —
// few distinct arrival numbers, waits, queries and objects — every policy
// picks the group its sorted-walk reference picks, each time it is asked
// (Go varies the map's iteration order from one range to the next).
func TestSchedulersMatchSortedWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	scheds := []Scheduler{NewFCFSObject(), NewMaxQueries(), NewRankBased()}
	for round := 0; round < 2000; round++ {
		loaded := rng.Intn(8) - 1
		pending := make(map[int][]*Request)
		for g := 0; g < 8; g++ {
			if g == loaded && rng.Intn(2) == 0 || rng.Intn(3) == 0 {
				continue
			}
			for j := 1 + rng.Intn(4); j > 0; j-- {
				pending[g] = append(pending[g], &Request{
					Object:  segment.ObjectID{Table: "t", Index: rng.Intn(3)},
					QueryID: fmt.Sprint("q", rng.Intn(4)),
					seq:     rng.Intn(6),
				})
			}
		}
		if len(pending) == 0 || len(pending) == 1 && len(pending[loaded]) > 0 {
			continue // NextGroup is never asked without a candidate
		}
		waits := map[string]int{"q0": rng.Intn(3), "q1": rng.Intn(3), "q2": rng.Intn(3), "q3": rng.Intn(3)}
		waiting := func(q string) int { return waits[q] }
		for _, s := range scheds {
			want := referenceNextGroup(s, loaded, pending, waiting)
			for ask := 0; ask < 8; ask++ {
				if got := s.NextGroup(loaded, pending, waiting); got != want {
					t.Fatalf("round %d: %s picked group %d, its sorted walk picks %d", round, s.Name(), got, want)
				}
			}
		}
	}
}

// referenceFCFSQuery is query-level FCFS: the query whose oldest pending
// request is the oldest of all (by name among equals), then the group
// holding that query's oldest pending request.
func referenceFCFSQuery(loaded int, pending map[int][]*Request) int {
	oldestPerQuery := make(map[string]int)
	for _, g := range referenceSortedGroups(loaded, pending) {
		for _, r := range pending[g] {
			if cur, ok := oldestPerQuery[r.QueryID]; !ok || r.seq < cur {
				oldestPerQuery[r.QueryID] = r.seq
			}
		}
	}
	bestQuery, bestSeq := "", int(^uint(0)>>1)
	for q, seq := range oldestPerQuery {
		if seq < bestSeq || (seq == bestSeq && q < bestQuery) {
			bestQuery, bestSeq = q, seq
		}
	}
	return referenceOldest(loaded, pending, func(r *Request) bool { return r.QueryID == bestQuery })
}

// TestQueryFCFSIsObjectFCFS: the device numbers every arrival uniquely
// (seq), so the query that owns the oldest pending request is the oldest
// query, and query-level FCFS loads the group FCFSObject loads. That is
// why the device has no query-FCFS scheduler of its own; this holds the
// reference to it over random pending sets with unique seqs.
func TestQueryFCFSIsObjectFCFS(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 2000; round++ {
		loaded := rng.Intn(8) - 1
		seqs := rng.Perm(64)
		pending := make(map[int][]*Request)
		for g := 0; g < 8; g++ {
			if rng.Intn(3) == 0 {
				continue
			}
			for j := 1 + rng.Intn(4); j > 0; j-- {
				pending[g] = append(pending[g], &Request{
					Object:  segment.ObjectID{Table: "t", Index: rng.Intn(3)},
					QueryID: fmt.Sprint("q", rng.Intn(4)),
					seq:     seqs[0],
				})
				seqs = seqs[1:]
			}
		}
		if len(pending) == 0 || len(pending) == 1 && len(pending[loaded]) > 0 {
			continue // NextGroup is never asked without a candidate
		}
		if want, got := referenceFCFSQuery(loaded, pending), NewFCFSObject().NextGroup(loaded, pending, nil); got != want {
			t.Fatalf("round %d: query-level FCFS picks group %d, fcfs-object picks %d", round, want, got)
		}
	}
}
