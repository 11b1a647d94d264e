package experiments

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/lattice"
	"repro/internal/skipper"
	"repro/internal/workload"
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

// faultRetryPolicy rides out the sweep's fault plans: attempts beyond
// the per-object cap, backoff deep enough to sleep across the crash
// downtime, no per-query budget.
func faultRetryPolicy() *skipper.RetryPolicy {
	return &skipper.RetryPolicy{
		MaxAttempts: 40,
		BaseBackoff: 500 * time.Millisecond,
		MaxBackoff:  8 * time.Second,
		Budget:      -1,
	}
}

// faultCell is the fault and scale sweeps' cell: the skipper engine under
// the given fleet, riding faults out with faultRetryPolicy, over a shared
// segment cache as small as the MJoin buffer — so corrupt-delivery
// quarantine and redelivery cross tenant boundaries under eviction
// pressure.
func (p Params) faultCell(fleet skipper.FleetSpec) lattice.Cell {
	cell := p.cell(skipper.ModeSkipper)
	fleet.Device = cell.Fleet.Device
	cell.Fleet, cell.SharedCache, cell.Retry = fleet, p.CacheObjects, faultRetryPolicy()
	return cell
}

// FaultPoint is one measured configuration of the fault-rate sweep.
type FaultPoint struct {
	// Label names the scenario ("clean", a fault rate, or "crash").
	Label string
	Mode  skipper.Mode
	// Makespan / AvgClient are simulated times; the degradation the
	// sweep measures is their growth over the clean row.
	Makespan  time.Duration
	AvgClient time.Duration
	// DeviceGets counts GETs the device received (retries included).
	DeviceGets int
	// Transient / Stalls / Corrupt are injected fault counts; Crashes /
	// Restarts come from the device.
	Transient, Stalls, Corrupt int64
	Crashes, Restarts          int
	// Retries / Backoff aggregate the clients' recovery effort.
	Retries int
	Backoff time.Duration
}

// measureFaults runs one scenario and digests it into a point.
func (p Params) measureFaults(ds *workload.Dataset, label string, plan faults.Plan) (FaultPoint, error) {
	cell := p.faultCell(skipper.FleetSpec{Faults: &plan})
	cell.PrefetchBytes = pipelinePrefetchBytes
	res, err := cell.Run(sweepWorkload(ds))
	if err != nil {
		return FaultPoint{}, err
	}
	pt := FaultPoint{
		Label:      label,
		Mode:       cell.Mode,
		Makespan:   res.Makespan,
		AvgClient:  avgElapsed(res),
		DeviceGets: res.CSD.GetsReceived,
		Crashes:    res.CSD.Crashes,
		Restarts:   res.CSD.Restarts,
	}
	for _, st := range res.Faults {
		pt.Transient, pt.Stalls, pt.Corrupt = pt.Transient+st.Transient, pt.Stalls+st.Stalls, pt.Corrupt+st.Corrupt
	}
	for _, cs := range res.Clients {
		pt.Retries += cs.Retries
		pt.Backoff += cs.RetryBackoff
	}
	return pt, nil
}

// FaultSweepData measures the skipper engine (prefetch on) under
// increasing fault rates plus the crash/restart scenario.
func (p Params) FaultSweepData() ([]FaultPoint, error) {
	ds, err := p.measured()
	if err != nil {
		return nil, err
	}
	scenarios := []struct {
		label string
		plan  faults.Plan
	}{
		{"clean", faults.Plan{}},
		{"rate 0.2", faultPlan(0.2)},
		{"rate 0.4", faultPlan(0.4)},
		{"rate 0.6", faultPlan(0.6)},
		{"crash+restart", *crashPlan(30 * time.Second)},
	}
	var out []FaultPoint
	for _, sc := range scenarios {
		pt, err := p.measureFaults(ds, sc.label, sc.plan)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.label, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// FaultReport renders FaultSweepData (`skipperbench -report faults`).
func (p Params) FaultReport() (*Figure, error) {
	pts, err := p.FaultSweepData()
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID: "Fault sweep",
		Title: fmt.Sprintf("Fault injection and recovery (%d tenants × %d passes, round-robin layout, skipper engine, prefetch on; per-object fault cap 3, retry backoff 500ms..8s)",
			cacheSweepClients, cacheSweepPasses),
		Columns: []string{
			"scenario", "makespan (s)", "avg client (s)", "device GETs",
			"transient", "stalls", "corrupt", "crashes", "retries", "backoff (s)",
		},
	}
	var clean time.Duration
	for i, pt := range pts {
		if i == 0 {
			clean = pt.Makespan
		}
		makespan := fmt.Sprintf("%.1f", pt.Makespan.Seconds())
		if i > 0 && clean > 0 {
			makespan += fmt.Sprintf(" (+%.0f%%)", 100*(pt.Makespan.Seconds()-clean.Seconds())/clean.Seconds())
		}
		f.Rows = append(f.Rows, []string{
			pt.Label,
			makespan,
			fmt.Sprintf("%.1f", pt.AvgClient.Seconds()),
			fmt.Sprintf("%d", pt.DeviceGets),
			fmt.Sprintf("%d", pt.Transient),
			fmt.Sprintf("%d", pt.Stalls),
			fmt.Sprintf("%d", pt.Corrupt),
			fmt.Sprintf("%d/%d", pt.Crashes, pt.Restarts),
			fmt.Sprintf("%d", pt.Retries),
			fmt.Sprintf("%.1f", pt.Backoff.Seconds()),
		})
	}
	f.Notes = append(f.Notes,
		"results are held byte-identical clean vs faulted across engines, formats (v1/v2) and pipeline off/on, and GET conservation (retries are both a client GET and a device GET) is checked on every run, by the lattice harness (go test ./internal/skipper ./internal/lattice)",
	)
	return f, nil
}
