package skipper

import (
	"testing"

	"repro/internal/layout"
)

// relocatedLayout wraps a base policy and moves one group's objects to a
// fallback group, modeling a disk-group failure before the run (§3.2).
type relocatedLayout struct {
	base             layout.Policy
	failed, fallback int
}

func (r relocatedLayout) Name() string { return r.base.Name() + "+relocated" }

func (r relocatedLayout) Assign(tenants []layout.TenantObjects) (*layout.Assignment, error) {
	a, err := r.base.Assign(tenants)
	if err != nil {
		return nil, err
	}
	if _, err := a.RelocateGroup(r.failed, r.fallback); err != nil {
		return nil, err
	}
	return a, nil
}

func TestGroupFailureRelocationPreservesResults(t *testing.T) {
	// Three tenants, one group each; group 1 fails and its data lands in
	// group 2. Queries still complete with identical results; the layout
	// just behaves like a two-group device.
	for _, mode := range []Mode{ModeVanilla, ModeSkipper} {
		clean := buildCluster(3, mode, 6)
		cleanRes, err := clean.Run()
		if err != nil {
			t.Fatal(err)
		}
		failed := buildCluster(3, mode, 6)
		failed.Layout = relocatedLayout{base: layout.OnePerGroup(), failed: 1, fallback: 2}
		failedRes, err := failed.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i := range cleanRes.Clients {
			if cleanRes.Clients[i].Rows != failedRes.Clients[i].Rows {
				t.Fatalf("%v tenant %d: rows %d != %d after relocation",
					mode, i, cleanRes.Clients[i].Rows, failedRes.Clients[i].Rows)
			}
		}
		// Two effective groups need fewer switches than three.
		if failedRes.CSD.GroupSwitches >= cleanRes.CSD.GroupSwitches && mode == ModeSkipper {
			t.Fatalf("%v: switches %d !< %d", mode, failedRes.CSD.GroupSwitches, cleanRes.CSD.GroupSwitches)
		}
	}
}

// TestAdversarialPlacement runs both engines over the round-robin object
// scattering a shared CSD may produce for load balancing (§3.2): every
// relation's segments are striped across all groups. Results must be
// identical to the clean layout; only I/O patterns may differ.
func TestAdversarialPlacement(t *testing.T) {
	for _, groups := range []int{2, 3, 5} {
		for _, mode := range []Mode{ModeVanilla, ModeSkipper} {
			clean := buildCluster(2, mode, 6)
			cleanRes, err := clean.Run()
			if err != nil {
				t.Fatal(err)
			}
			scattered := buildCluster(2, mode, 6)
			scattered.Layout = layout.RoundRobinObjects{NumGroups: groups}
			scatRes, err := scattered.Run()
			if err != nil {
				t.Fatalf("groups=%d %v: %v", groups, mode, err)
			}
			for i := range cleanRes.Clients {
				if cleanRes.Clients[i].Rows != scatRes.Clients[i].Rows {
					t.Fatalf("groups=%d %v tenant %d: rows %d != %d",
						groups, mode, i, cleanRes.Clients[i].Rows, scatRes.Clients[i].Rows)
				}
			}
			// Striping across groups forces switches for everyone.
			if scatRes.CSD.GroupSwitches == 0 {
				t.Fatalf("groups=%d %v: no switches under scattering", groups, mode)
			}
		}
	}
}
