package experiments

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/lattice"
	"repro/internal/skipper"
)

// This file is the evaluation of the fault-injection and recovery layer
// behind `skipperbench -report faults`. (That surviving a fault never
// changes a result, and that GET conservation extends to the re-requests,
// is the lattice harness's fault axis, not this report's.) It sweeps the
// fault rate and reports the cost of surviving: extra device transfers,
// retry backoff, and the makespan degradation, plus a crash/restart
// row (the device dies mid-run and comes back) at the end.

// faultSweepSeed keys every sweep decision; one seed, one schedule.
const faultSweepSeed = 99

// faultPlan builds the retryable-only plan at intensity rate: transfers
// fail transiently at the full rate, stall and corrupt at half of it,
// with the per-object cap keeping bounded retries convergent.
func faultPlan(rate float64) faults.Plan {
	return faults.Plan{
		Seed:               faultSweepSeed,
		TransientRate:      rate,
		StallRate:          rate / 2,
		Stall:              3 * time.Second,
		CorruptRate:        rate / 2,
		MaxFaultsPerObject: 3,
	}
}

// crashPlan is the sweeps' crash scenario: a clean device 0 that dies at
// 60 s of simulated time and restarts after downtime (0 = never).
func crashPlan(downtime time.Duration) *faults.Plan {
	return &faults.Plan{Seed: faultSweepSeed, CrashAt: 60 * time.Second, CrashDowntime: downtime}
}

// faultCell is the fault and scale sweeps' cell: the skipper engine over a
// shared segment cache as small as the MJoin buffer — so corrupt-delivery
// quarantine and redelivery cross tenant boundaries under eviction
// pressure — riding the sweeps' fault plans out: attempts beyond the
// per-object cap, backoff deep enough to sleep across the crash downtime,
// no per-query budget.
func (p Params) faultCell() lattice.Cell {
	cell := p.cell(skipper.ModeSkipper)
	cell.SharedCache = p.CacheObjects
	cell.Retry = &skipper.RetryPolicy{MaxAttempts: 40, BaseBackoff: 500 * time.Millisecond, MaxBackoff: 8 * time.Second, Budget: -1}
	return cell
}

// faultReport measures the skipper engine (prefetch on) under increasing
// fault rates plus the crash/restart scenario.
func (p Params) faultReport() (*Grid, error) {
	ds, err := encoded(p.clusteredDataset())
	if err != nil {
		return nil, err
	}
	base := p.faultCell()
	base.PrefetchBytes = pipelinePrefetchBytes
	g := &Grid{
		ID: "Fault sweep",
		Title: fmt.Sprintf("Fault injection and recovery (%d tenants × %d passes, round-robin layout, skipper engine, prefetch on; per-object fault cap 3, retry backoff 500ms..8s)",
			cacheSweepClients, cacheSweepPasses),
		Keys: []string{"scenario"},
		Base: base,
		Columns: []Column{
			// Every makespan after the clean row's prints its growth over it.
			{"makespan (s)", 0, makespan, func(m *Matrix, r int, v float64) string {
				return secs(time.Duration(v)) + growth(r > 0, v, m.At(0, "makespan (s)"), "")
			}},
			{"avg client (s)", 0, avgClient, seconds},
			{"device GETs", 0, deviceGets, count},
			{"transient", 0, transient, count},
			{"stalls", 0, stalls, count},
			{"corrupt", 0, corrupt, count},
			{"crashes", 0, crashes, func(m *Matrix, r int, v float64) string {
				return fmt.Sprintf("%d/%d", int(v), int(m.At(r, "restarts")))
			}},
			{"restarts", 0, restarts, nil},
			{"retries", 0, retries, count},
			{"backoff (s)", 0, backoff, seconds},
		},
		Notes: []string{
			"results are held byte-identical clean vs faulted across engines, the v2 format and pipeline off/on, and GET conservation (retries are both a client GET and a device GET) is checked on every run, by the lattice harness (go test ./internal/skipper ./internal/lattice)",
		},
	}
	for _, sc := range []struct {
		label string
		plan  faults.Plan
	}{
		{"clean", faults.Plan{}},
		{"rate 0.2", faultPlan(0.2)},
		{"rate 0.4", faultPlan(0.4)},
		{"rate 0.6", faultPlan(0.6)},
		{"crash+restart", *crashPlan(30 * time.Second)},
	} {
		g.Rows = append(g.Rows, sweepRow(ds, func(c *lattice.Cell, _ *lattice.Workload) { c.Fleet.Faults = &sc.plan }, sc.label))
	}
	return g, nil
}

// growth prints a makespan's change over base, " (+12%)" plus the suffix
// naming base, when shown and base > 0.
func growth(shown bool, v, base float64, vs string) string {
	if !shown || base <= 0 {
		return ""
	}
	b := time.Duration(base).Seconds()
	return fmt.Sprintf(" (%+.0f%%%s)", 100*(time.Duration(v).Seconds()-b)/b, vs)
}
