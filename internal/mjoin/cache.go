package mjoin

import (
	"repro/internal/segment"
)

// PolicyInfo exposes the state manager's bookkeeping to eviction policies.
// The state manager has full visibility of cache contents (columnar
// cache entries with per-object hash tables; see cacheEntry in exec.go)
// and pending subplans, which is exactly what the paper's greedy
// heuristics exploit.
type PolicyInfo interface {
	// PendingCount returns the number of pending (unexecuted, unpruned)
	// subplans that include the object.
	PendingCount(id segment.ObjectID) int
	// ExecutableCount returns the number of pending subplans that include
	// the object and whose every object is present in cache ∪ {arriving}.
	// The state manager tallies every object's count once per eviction
	// decision, in one walk over the product of the relations' cached
	// segments, into an array it reuses.
	ExecutableCount(id segment.ObjectID) int
	// ArrivalSeq returns a monotone sequence number of the object's most
	// recent arrival (for FIFO/LRU tie-breaking).
	ArrivalSeq(id segment.ObjectID) int
}

// EvictionPolicy picks which cached object to drop to admit an arrival.
type EvictionPolicy interface {
	// Name identifies the policy in stats, traces and benchmarks.
	Name() string
	// PickVictim returns one element of cached. cached is non-empty and
	// ordered by arrival (oldest first).
	PickVictim(cached []segment.ObjectID, arriving segment.ObjectID, info PolicyInfo) segment.ObjectID
}

// MaxProgress is the paper's final policy (§4.2 "Maximal progress"): evict
// the object participating in the fewest executable subplans given the
// current cache state and the arriving object; break ties by fewest
// pending subplans, then FIFO. A side effect is that small relations,
// whose objects participate in many subplans, stay pinned — automatically
// favouring star-schema dimension tables.
type MaxProgress struct{}

// Name implements EvictionPolicy.
func (MaxProgress) Name() string { return "max-progress" }

// PickVictim implements EvictionPolicy: fewest executable subplans,
// then fewest pending, then FIFO.
func (MaxProgress) PickVictim(cached []segment.ObjectID, _ segment.ObjectID, info PolicyInfo) segment.ObjectID {
	victim := cached[0]
	bestExec, bestPend := info.ExecutableCount(victim), info.PendingCount(victim)
	for _, id := range cached[1:] {
		e, p := info.ExecutableCount(id), info.PendingCount(id)
		if e < bestExec || (e == bestExec && p < bestPend) {
			victim, bestExec, bestPend = id, e, p
		}
	}
	return victim
}
