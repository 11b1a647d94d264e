package lattice

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/layout"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/trace"
)

// The sampled axes. fleets is the fleet axis: the classic single device,
// then growing fleets with and without replication.
var (
	modes   = []skipper.Mode{skipper.ModeVanilla, skipper.ModeSkipper}
	formats = []segment.Format{segment.FormatMem, segment.FormatV2}
	fleets  = []skipper.FleetSpec{
		{},
		{N: 2},
		{N: 2, Replication: layout.Replication{Kind: layout.ReplicateHot}},
		{N: 4},
		{N: 4, Replication: layout.Replication{Kind: layout.ReplicateFull}},
	}
)

// probeMJoinCache is the MJoin buffer: the minimum for the probe pair's
// six-relation join, so eviction and reissue are always on.
const probeMJoinCache = 6

// AllOn is the cell no matrix reaches: one engine with every feature at
// once — faults × a two-device hot-replicated fleet × shared cache ×
// pipeline × traced.
func AllOn(mode skipper.Mode, footprint int) Cell {
	return Cell{
		Mode: mode, Format: segment.FormatV2, MJoinCache: probeMJoinCache,
		SharedCache: footprint, PrefetchBytes: PrefetchOn, Traced: true,
		Fleet: skipper.FleetSpec{N: 2, Replication: layout.Replication{Kind: layout.ReplicateHot}, Faults: Chaos(42)},
	}
}

// pairwiseAxes are the sizes of the sampled axes, in the order Pairwise
// decodes them: mode, format, pruning, cache, pipeline, faults, fleet,
// traced.
var pairwiseAxes = []int{len(modes), len(formats), 2, 2, 2, 2, len(fleets), 2}

// Pairwise is a deterministic sample of the full lattice in which every
// pair of values of every two axes occurs together in at least one cell —
// the cross-feature cells (faults × fleet, cache × tracing, …) that the
// one-feature-at-a-time matrices never run.
func Pairwise(footprint int) []Cell {
	var out []Cell
	for _, row := range coveringRows(pairwiseAxes) {
		c := Cell{
			Mode: modes[row[0]], Format: formats[row[1]],
			NoPrune: row[2] == 1, MJoinCache: probeMJoinCache,
			Fleet: fleets[row[6]], Traced: row[7] == 1,
		}
		if row[3] == 1 {
			c.SharedCache = footprint
		}
		if row[4] == 1 {
			c.PrefetchBytes = PrefetchOn
		}
		if row[5] == 1 {
			c.Fleet.Faults = Chaos(42)
		}
		out = append(out, c)
	}
	return out
}

// coveringRows returns rows of axis-value indices (row[i] < sizes[i]) such
// that every pair of values of every two axes occurs in some row. Greedy:
// walk the full product in lexicographic order and keep the row covering
// the most still-uncovered pairs, first one winning ties, until none is
// left — a pure function of sizes, so the sample never changes between
// runs.
func coveringRows(sizes []int) [][]int {
	type pair struct{ i, a, j, b int }
	uncovered := map[pair]bool{}
	for i := range sizes {
		for j := i + 1; j < len(sizes); j++ {
			for a := 0; a < sizes[i]; a++ {
				for b := 0; b < sizes[j]; b++ {
					uncovered[pair{i, a, j, b}] = true
				}
			}
		}
	}
	gain := func(row []int) int {
		n := 0
		for i := range row {
			for j := i + 1; j < len(row); j++ {
				if uncovered[pair{i, row[i], j, row[j]}] {
					n++
				}
			}
		}
		return n
	}
	var rows [][]int
	for len(uncovered) > 0 {
		row := make([]int, len(sizes))
		var best []int
		bestGain := 0
		for {
			if g := gain(row); g > bestGain {
				best, bestGain = append(best[:0], row...), g
			}
			// Advance row to the next element of the product.
			k := len(row) - 1
			for ; k >= 0; k-- {
				if row[k]++; row[k] < sizes[k] {
					break
				}
				row[k] = 0
			}
			if k < 0 {
				break
			}
		}
		for i := range best {
			for j := i + 1; j < len(best); j++ {
				delete(uncovered, pair{i, best[i], j, best[j]})
			}
		}
		rows = append(rows, best)
	}
	return rows
}

// TestCrossFeatureCells runs the cells no feature matrix reaches: the
// pairwise-covering sample over every axis, and each engine with every
// feature on at once.
func TestCrossFeatureCells(t *testing.T) {
	ds := ProbeDataset()
	footprint := len(ds.Catalog.AllObjects())
	cells := append(Pairwise(footprint), AllOn(skipper.ModeVanilla, footprint), AllOn(skipper.ModeSkipper, footprint))
	for _, c := range cells {
		t.Run(c.String(), func(t *testing.T) {
			if err := Verify(ds, Probe, []Cell{c}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPairwiseCoversEveryPair: every pair of values of every two axes
// occurs in some row of the sample, and the sample is the same on every
// call.
func TestPairwiseCoversEveryPair(t *testing.T) {
	rows := coveringRows(pairwiseAxes)
	for i := range pairwiseAxes {
		for j := i + 1; j < len(pairwiseAxes); j++ {
			for a := 0; a < pairwiseAxes[i]; a++ {
				for b := 0; b < pairwiseAxes[j]; b++ {
					covered := false
					for _, row := range rows {
						covered = covered || (row[i] == a && row[j] == b)
					}
					if !covered {
						t.Fatalf("axes %d,%d: values (%d,%d) never occur together in %d rows", i, j, a, b, len(rows))
					}
				}
			}
		}
	}
	if !reflect.DeepEqual(rows, coveringRows(pairwiseAxes)) {
		t.Fatal("two calls produced different samples")
	}
	if got := len(Pairwise(9)); got != len(rows) {
		t.Fatalf("Pairwise built %d cells from %d rows", got, len(rows))
	}
	t.Logf("%d cells cover every pair of %d axes", len(rows), len(pairwiseAxes))
}

// TestEveryCheckCanFail is the harness's self-test: a check that cannot
// fail verifies nothing. Each case takes a real, passing run of the
// all-features cell, doctors one ledger entry or zeroes one counter, and
// requires the check to fail under the name of what was broken.
func TestEveryCheckCanFail(t *testing.T) {
	ds := ProbeDataset()
	cell := AllOn(skipper.ModeSkipper, len(ds.Catalog.AllObjects()))
	cell.KeepResults = true
	want, err := Oracle(ds, Probe)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		cl  *skipper.Cluster
		res *skipper.RunResult
	}
	fresh := func(t *testing.T, c Cell) run {
		t.Helper()
		cl, res, err := runSettled(c, Shared(ds, Probe, Tenants, Groups))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRun(c, res, want); err != nil {
			t.Fatalf("undoctored run rejected: %v", err)
		}
		return run{cl, res}
	}
	clean := cell
	clean.Fleet.Faults = nil
	pipeOff := cell
	pipeOff.PrefetchBytes = 0
	noCache := cell
	noCache.SharedCache = 0

	invariants := func(c Cell, r run) error { return r.res.CheckInvariants() }
	rows := func(c Cell, r run) error { return CheckRows(r.res, want) }
	pipeline := func(c Cell, r run) error { return checkPipeline(c, r.res) }
	faulted := func(c Cell, r run) error { return checkFaults(c, r.res) }
	fleet := func(c Cell, r run) error { return checkFleet(c, r.res) }
	cache := func(c Cell, r run) error { return checkCache(r.res, fresh(t, noCache).res) }
	traced := func(c Cell, r run) error { return checkTraced(r.cl, r.res, fresh(t, c).res) }
	eachClient := func(f func(cs *skipper.ClientStats)) func(run) {
		return func(r run) {
			for _, cs := range r.res.Clients {
				f(cs)
			}
		}
	}
	cases := []struct {
		name, doctored string // the check that must fail, and what was done to the run
		cell           Cell
		doctor         func(r run)
		check          func(c Cell, r run) error
	}{
		{"device-conservation", "one more demand GET on a ledger", clean, func(r run) { r.res.Clients[0].DeviceGets[0]++ }, invariants},
		{"demand-ledger", "one more GET issued", cell, func(r run) { r.res.Clients[0].GetsIssued++ }, invariants},
		{"prefetch-ledger", "one more prefetch issued", cell, func(r run) { r.res.Clients[1].PrefetchIssued++ }, invariants},
		{"mjoin-requests", "one MJoin request lost", cell, func(r run) { r.res.Clients[0].MJoin.Requests-- }, invariants},
		{"prefetch-useful", "more useful than issued", cell, func(r run) { r.res.Clients[0].PrefetchUseful = r.res.Clients[0].PrefetchIssued + 1 }, invariants},
		{"cache-hits", "one more hit at the cache", cell, func(r run) { r.res.Cache.Hits++ }, invariants},
		{"rows", "a row dropped", cell, func(r run) { r.res.Clients[1].PerQuery[0].Results = r.res.Clients[1].PerQuery[0].Results[1:] }, rows},
		{"rows", "a query dropped", cell, func(r run) { r.res.Clients[0].PerQuery = r.res.Clients[0].PerQuery[1:] }, rows},
		{"pipeline", "nothing prefetched", cell, eachClient(func(cs *skipper.ClientStats) { cs.PrefetchIssued = 0 }), pipeline},
		{"pipeline", "no cache hit attributed", cell, eachClient(func(cs *skipper.ClientStats) { cs.PrefetchUseful = 0 }), pipeline},
		{"pipeline", "nothing served staged", noCache, eachClient(func(cs *skipper.ClientStats) { cs.PrefetchServed = 0 }), pipeline},
		{"pipeline", "no wall clock", cell, func(r run) { r.res.Clients[0].WallElapsed = 0 }, pipeline},
		{"pipeline", "prefetch with the pipeline off", pipeOff, func(r run) { r.res.Clients[0].PrefetchIssued = 1 }, pipeline},
		{"faults", "nothing injected", cell, func(r run) {
			for i := range r.res.Faults {
				r.res.Faults[i].Transient, r.res.Faults[i].Corrupt = 0, 0
			}
		}, faulted},
		{"faults", "an injector report missing", cell, func(r run) { r.res.Faults = r.res.Faults[:1] }, faulted},
		{"faults", "nothing observed", cell, eachClient(func(cs *skipper.ClientStats) { cs.TransientFaults, cs.CorruptDeliveries = 0, 0 }), faulted},
		{"faults", "nothing retried", pipeOff, eachClient(func(cs *skipper.ClientStats) { cs.Retries = 0 }), faulted},
		{"faults", "a fault on a clean device", clean, func(r run) { r.res.Clients[0].TransientFaults = 1 }, faulted},
		{"fleet", "an idle device", cell, func(r run) { r.res.Devices[1].GetsReceived = 0 }, fleet},
		{"fleet", "a device missing", cell, func(r run) { r.res.Devices = r.res.Devices[:1] }, fleet},
		{"cache", "no hits", cell, func(r run) { r.res.Cache.Hits = 0 }, cache},
		{"cache", "no GETs saved", cell, func(r run) { r.res.CSD.GetsReceived = 1 << 30 }, cache},
		{"cache", "statistics without a cache", cell, func(r run) {}, func(c Cell, r run) error { return checkCache(r.res, r.res) }},
		{"traced", "makespan moved", cell, func(r run) { r.res.Makespan++ }, traced},
		{"traced", "device GETs moved", cell, func(r run) { r.res.CSD.GetsReceived++ }, traced},
		{"traced", "an empty trace", cell, func(r run) { r.cl.Clients[0].QTrace = trace.NewQueryTrace("empty", 0, "") }, traced},
		{"traced", "an empty device lane", cell, func(r run) { r.cl.Fleet.Device.Trace = trace.NewQueryTrace("empty", -1, "") }, traced},
		{"traced", "a group switch unrecorded", cell, func(r run) { r.res.Devices[0].GroupSwitches++ }, traced},
		{"goroutines", "four left running", cell, func(r run) {}, func(Cell, run) error {
			stop := make(chan struct{})
			defer close(stop)
			baseline := runtime.NumGoroutine()
			for i := 0; i < 4; i++ {
				go func() { <-stop }()
			}
			return Settle(baseline, 50*time.Millisecond)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/"+tc.doctored, func(t *testing.T) {
			r := fresh(t, tc.cell)
			tc.doctor(r)
			err := tc.check(tc.cell, r)
			var ie *skipper.InvariantError
			var ae *AxisError
			switch {
			case errors.As(err, &ie):
				if ie.Name != tc.name {
					t.Fatalf("doctored %s, but the run failed invariant %s: %v", tc.name, ie.Name, err)
				}
			case errors.As(err, &ae):
				if ae.Axis != tc.name {
					t.Fatalf("doctored %s, but the run failed predicate %s: %v", tc.name, ae.Axis, err)
				}
			default:
				t.Fatalf("doctored %s passed (err = %v)", tc.name, err)
			}
		})
	}
}
