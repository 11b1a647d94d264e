package csd

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// schedulerSim drives a scheduler through synthetic switch decisions: a
// fixed population of queries, each pinned to one group, re-enqueues a
// request after every service. It returns the longest gap (in switches)
// any query experienced between services.
func schedulerSim(s Scheduler, queryGroups []int, rounds int, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	nq := len(queryGroups)
	lastService := make([]int, nq) // switch index of last service
	switches := 0
	maxGap := 0
	loaded := -1
	seq := 0
	for r := 0; r < rounds; r++ {
		pending := make(map[int][]*Request)
		for qi, g := range queryGroups {
			if g == loaded {
				// Queries on the loaded group are serviced immediately
				// without a switch (the controller drains them).
				lastService[qi] = switches
				continue
			}
			seq++
			pending[g] = append(pending[g], &Request{
				QueryID: fmt.Sprint("q", qi), Tenant: qi, seq: seq - rng.Intn(2),
			})
		}
		if len(pending) == 0 {
			break
		}
		waiting := func(q string) int {
			var qi int
			fmt.Sscanf(q, "q%d", &qi)
			return switches - lastService[qi]
		}
		next := s.NextGroup(loaded, pending, waiting)
		switches++
		loaded = next
		for qi, g := range queryGroups {
			if g == loaded {
				if gap := switches - lastService[qi]; gap > maxGap {
					maxGap = gap
				}
				lastService[qi] = switches
			}
		}
	}
	// A query still waiting at the horizon counts with its open gap —
	// otherwise a fully starved query would never register.
	for qi := range queryGroups {
		if gap := switches - lastService[qi]; gap > maxGap {
			maxGap = gap
		}
	}
	return maxGap
}

// TestRankBasedBoundedWaiting: with K=1, a query's waiting time is
// bounded — the lone query's rank grows by one per switch, so it
// eventually outranks any constant-population group. Max-Queries provides
// no such bound and starves the lone query for the whole horizon.
func TestRankBasedBoundedWaiting(t *testing.T) {
	// Two busy groups with three queries each, one lone query on group 2.
	groups := []int{0, 0, 0, 1, 1, 1, 2}
	const rounds = 60
	rankGap := schedulerSim(NewRankBased(1), groups, rounds, 1)
	maxqGap := schedulerSim(NewMaxQueries(), groups, rounds, 1)
	if rankGap > 8 {
		t.Fatalf("rank-based max gap %d switches; expected bounded (<8)", rankGap)
	}
	if maxqGap <= rankGap {
		t.Fatalf("max-queries gap %d not worse than rank-based %d", maxqGap, rankGap)
	}
}

// TestSchedulersAlwaysPickValidGroup: every scheduler must return a
// non-loaded group that has pending requests, for random pending maps.
func TestSchedulersAlwaysPickValidGroup(t *testing.T) {
	scheds := []Scheduler{NewFCFSObject(), NewFCFSQuery(), NewMaxQueries(), NewRankBased(1), NewRankBased(0)}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		loaded := rng.Intn(5)
		pending := make(map[int][]*Request)
		ngroups := 1 + rng.Intn(4)
		for i := 0; i < ngroups; i++ {
			g := rng.Intn(6)
			if g == loaded {
				g = (g + 1) % 6
			}
			for j := 0; j < 1+rng.Intn(3); j++ {
				pending[g] = append(pending[g], &Request{
					QueryID: fmt.Sprint("q", rng.Intn(4)),
					seq:     rng.Intn(100),
				})
			}
		}
		wait := func(string) int { return rng.Intn(10) }
		for _, s := range scheds {
			g := s.NextGroup(loaded, pending, wait)
			if g == loaded {
				t.Logf("%s picked loaded group", s.Name())
				return false
			}
			if len(pending[g]) == 0 {
				t.Logf("%s picked empty group %d", s.Name(), g)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRankFormulaMatchesDefinition checks R(g) = Ng + K·ΣWq(g) on a
// hand-computable case.
func TestRankFormulaMatchesDefinition(t *testing.T) {
	pending := map[int][]*Request{
		1: {req(1, "qa", 0), req(2, "qb", 1), req(3, "qa", 0)}, // Ng=2
		2: {req(4, "qc", 2)},                                   // Ng=1
	}
	waits := map[string]int{"qa": 0, "qb": 1, "qc": 2}
	wait := func(q string) int { return waits[q] }
	// K=1: R(1)=2+(0+1)=3, R(2)=1+2=3 -> tie, higher Ng wins -> group 1.
	if g := NewRankBased(1).NextGroup(0, pending, wait); g != 1 {
		t.Fatalf("tie-break picked %d", g)
	}
	// K=2: R(1)=2+2=4, R(2)=1+4=5 -> group 2.
	if g := NewRankBased(2).NextGroup(0, pending, wait); g != 2 {
		t.Fatalf("K=2 picked %d", g)
	}
}

// TestSchedulersDoNotAllocate: a switch decision over short queues — three
// groups of twelve requests from four queries, duplicate objects included
// — allocates nothing under any of the four policies.
func TestSchedulersDoNotAllocate(t *testing.T) {
	pending := map[int][]*Request{}
	for i := 0; i < 36; i++ {
		g := i % 3
		pending[g] = append(pending[g], &Request{Object: oid(0, "t", i%7), QueryID: fmt.Sprint("q", i%4), seq: i})
	}
	waiting := func(q string) int { return len(q) }
	for _, s := range []Scheduler{NewFCFSObject(), NewFCFSQuery(), NewMaxQueries(), NewRankBased(1)} {
		if allocs := testing.AllocsPerRun(100, func() { s.NextGroup(0, pending, waiting) }); allocs != 0 {
			t.Errorf("%s: %.1f allocations per decision, want none", s.Name(), allocs)
		}
	}
}
