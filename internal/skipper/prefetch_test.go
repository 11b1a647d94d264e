package skipper

import (
	"testing"

	"repro/internal/segment"
)

// TestPickCandidateKeepsFIFOWithinATier: among candidates of the same
// affinity the earliest-queued wins — including when the earliest is the
// queue head (index 0 must not double as "none found").
func TestPickCandidateKeepsFIFOWithinATier(t *testing.T) {
	for _, tc := range []struct {
		name     string
		affinity []int // per queue position
		want     int
	}{
		{"empty affinities fall back to the head", []int{0, 0, 0}, 0},
		{"predicted-next head beats a later predicted-next", []int{1, 0, 1}, 0},
		{"first predicted-next past the head", []int{0, 1, 1}, 1},
		{"loaded group beats predicted-next, wherever it is", []int{1, 0, 2, 2}, 2},
		{"loaded head", []int{2, 1, 2}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			queue := make([]pfCandidate, len(tc.affinity))
			score := map[segment.ObjectID]int{}
			for i, a := range tc.affinity {
				queue[i].id = segment.ObjectID{Table: "t", Index: i}
				score[queue[i].id] = a
			}
			got := pickCandidate(queue, func(id segment.ObjectID) int { return score[id] })
			if got != tc.want {
				t.Fatalf("affinities %v: picked %d, want %d", tc.affinity, got, tc.want)
			}
		})
	}
}
