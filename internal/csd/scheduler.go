package csd

import (
	"slices"

	"repro/internal/segment"
)

// Scheduler decides which disk group to load next. NextGroup receives the
// currently loaded group, the pending requests bucketed by group (never
// empty, and never containing only the loaded group), and a waiting
// function that returns, for a query id, the number of group switches
// since that query was last serviced (§4.4). Implementations must return a
// group with pending requests that differs from loaded, and must not
// modify pending: it is the device's own queues, not a copy. Equally good
// candidates resolve to the lowest group id, so the answer does not depend
// on the order the map is walked in.
type Scheduler interface {
	Name() string
	NextGroup(loaded int, pending map[int][]*Request, waiting func(queryID string) int) int
}

// distinct appends the distinct keys of reqs to seen, in order of first
// appearance. The schedulers count in stack buffers, not maps: they run on
// every switch, a group's queue is short (under 16 requests throughout the
// batch benchmark), and a Scheduler value, shared by concurrent devices,
// keeps no state.
func distinct[K comparable](reqs []*Request, key func(*Request) K, seen []K) []K {
	for _, r := range reqs {
		if k := key(r); !slices.Contains(seen, k) {
			seen = append(seen, k)
		}
	}
	return seen
}

func queryOf(r *Request) string            { return r.QueryID }
func objectOf(r *Request) segment.ObjectID { return r.Object }

// distinctQueries counts distinct query ids among requests.
func distinctQueries(reqs []*Request) int {
	var buf [16]string
	return len(distinct(reqs, queryOf, buf[:0]))
}

// coalescedRequests counts requests that would ride along on another
// request's transfer: len(reqs) minus the distinct objects. The device
// coalesces duplicate same-object requests into one transfer at
// dispatch, so a group with a high count serves the same demand with
// fewer transfers.
func coalescedRequests(reqs []*Request) int {
	var buf [16]segment.ObjectID
	return len(reqs) - len(distinct(reqs, objectOf, buf[:0]))
}

// FCFSObject loads the group holding the oldest pending object request —
// the fairness-first policy current CSD firmware uses (§4.4). It produces
// many unwarranted switches because it ignores which requests belong to
// the same query.
type FCFSObject struct{}

// NewFCFSObject returns the object-level FCFS scheduler.
func NewFCFSObject() FCFSObject { return FCFSObject{} }

func (FCFSObject) Name() string { return "fcfs-object" }

func (FCFSObject) NextGroup(loaded int, pending map[int][]*Request, _ func(string) int) int {
	return oldestGroup(loaded, pending, func(*Request) bool { return true })
}

// oldestGroup returns the group other than loaded that holds the oldest
// pending request among those match accepts, or -1 when none does.
func oldestGroup(loaded int, pending map[int][]*Request, match func(*Request) bool) int {
	best, bestSeq := -1, int(^uint(0)>>1)
	for g, reqs := range pending {
		if g == loaded {
			continue
		}
		for _, r := range reqs {
			if match(r) && (r.seq < bestSeq || (r.seq == bestSeq && g < best)) {
				best, bestSeq = g, r.seq
			}
		}
	}
	return best
}

// FCFSQuery services queries in arrival order: the next group is the one
// holding data for the query whose oldest pending request is globally
// oldest. Fair across tenants but inefficient: it cannot merge requests
// across queries (§4.4).
type FCFSQuery struct{}

// NewFCFSQuery returns the query-level FCFS scheduler.
func NewFCFSQuery() FCFSQuery { return FCFSQuery{} }

func (FCFSQuery) Name() string { return "fcfs-query" }

func (FCFSQuery) NextGroup(loaded int, pending map[int][]*Request, _ func(string) int) int {
	// The oldest pending request per query, then the oldest query overall
	// (by name among equals): the least (seq, query id) of any request.
	bestQuery, bestSeq := "", int(^uint(0)>>1)
	for g, reqs := range pending {
		if g == loaded {
			continue
		}
		for _, r := range reqs {
			if r.seq < bestSeq || (r.seq == bestSeq && r.QueryID < bestQuery) {
				bestQuery, bestSeq = r.QueryID, r.seq
			}
		}
	}
	// Load the group holding that query's oldest pending request.
	return oldestGroup(loaded, pending, func(r *Request) bool { return r.QueryID == bestQuery })
}

// MaxQueries loads the group with the most distinct pending queries — the
// throughput-optimal tertiary-storage policy (within 2% of optimal, [35])
// — but can starve groups with few queries.
type MaxQueries struct{}

// NewMaxQueries returns the efficiency-only scheduler.
func NewMaxQueries() MaxQueries { return MaxQueries{} }

func (MaxQueries) Name() string { return "max-queries" }

func (MaxQueries) NextGroup(loaded int, pending map[int][]*Request, _ func(string) int) int {
	best, bestN := -1, -1
	for g, reqs := range pending {
		if g == loaded {
			continue
		}
		if n := distinctQueries(reqs); n > bestN || (n == bestN && g < best) {
			best, bestN = g, n
		}
	}
	return best
}

// RankBased implements the paper's scheduler: each candidate group g gets
// rank R(g) = Ng + K·Σ Wq(g), where Ng is the number of distinct queries
// with pending data on g and Wq is the number of switches since query q
// was last serviced. K=1 maximizes fairness while preserving the
// Max-Queries behaviour for equal waiting times (§4.4). The scheduler is
// coalesce-aware: among equally ranked groups with the same query count
// it prefers the one where more pending requests collapse onto shared
// transfers (duplicate objects), i.e. the group that serves its demand
// with the fewest transfers.
type RankBased struct {
	K float64
}

// NewRankBased returns the rank scheduler with scaling factor k.
func NewRankBased(k float64) *RankBased { return &RankBased{K: k} }

func (s *RankBased) Name() string { return "rank-based" }

func (s *RankBased) NextGroup(loaded int, pending map[int][]*Request, waiting func(string) int) int {
	best := ranked{group: -1, rank: -1, queries: -1, coalesced: -1}
	for g, reqs := range pending {
		if g == loaded {
			continue
		}
		var buf [16]string
		queries := distinct(reqs, queryOf, buf[:0])
		sumWait := 0
		for _, q := range queries {
			sumWait += waiting(q)
		}
		cand := ranked{
			group:     g,
			rank:      float64(len(queries)) + s.K*float64(sumWait),
			queries:   len(queries),
			coalesced: coalescedRequests(reqs),
		}
		if cand.beats(best) {
			best = cand
		}
	}
	return best.group
}

// ranked is one candidate group as RankBased scores it.
type ranked struct {
	group     int
	rank      float64
	queries   int // Ng
	coalesced int
}

// beats orders candidates by rank, then Ng (efficiency), then coalesced
// requests (a duplicate-heavy group serves the same demand with fewer
// transfers), then lowest group id (determinism).
func (c ranked) beats(o ranked) bool {
	switch {
	case c.rank != o.rank:
		return c.rank > o.rank
	case c.queries != o.queries:
		return c.queries > o.queries
	case c.coalesced != o.coalesced:
		return c.coalesced > o.coalesced
	}
	return c.group < o.group
}
