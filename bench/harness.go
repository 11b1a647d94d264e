package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/workload"
)

// scale sizes the datasets and the fixed parts of every workload. The
// measured phase is timed (-seconds) but always a whole number of rounds,
// and a round is a fixed, seed-determined op sequence, so every per-op
// count repeats exactly however many rounds fit.
type scale struct {
	name          string
	sf            int
	rowsPerObject int
	// setupRepeats set-ups are timed before the measured phase and as
	// many after it.
	setupRepeats int
	probeRepeats int
	// Warm-up, in ops per connection (serve-dash: in rounds).
	batchWarmup, ingestWarmup, microWarmup, dashWarmupRounds int
	// Ops per connection in one round of a serving workload.
	microRound, dashRound int
	// dashWindowMonths is the width of one dashboard window.
	dashWindowMonths int
	// allowEmpty lets an oracle query select no rows: at the smoke scale
	// the filtered queries legitimately do, and only the plumbing is
	// under test.
	allowEmpty bool
}

var scales = map[string]scale{
	// The repo's default 6-20 rows/object does no host work worth timing.
	"full": {
		name: "full", sf: 8, rowsPerObject: 2000, setupRepeats: 5, probeRepeats: 30,
		batchWarmup: 10, ingestWarmup: 20, microWarmup: 1000, dashWarmupRounds: 1,
		microRound: 200, dashRound: 273, dashWindowMonths: 3,
	},
	// The smoke the package's test runs: same code paths, no host work.
	"tiny": {
		name: "tiny", sf: 2, rowsPerObject: 50, setupRepeats: 2, probeRepeats: 3,
		batchWarmup: 1, ingestWarmup: 1, microWarmup: 2, dashWarmupRounds: 1,
		microRound: 4, dashRound: 9, dashWindowMonths: 24, allowEmpty: true,
	},
}

type config struct {
	seed    int64
	scale   scale
	seconds float64
	outDir  string
}

// instance is one set-up workload, ready to run rounds.
type instance struct {
	conns        int
	warmupRounds int
	// round runs one round of ops on connection c.
	round func(c int, rec *recorder)
	// oracle computes the expected rows of every distinct query (untimed,
	// after set-up) and fails when one of them is empty.
	oracle func() error
	close  func()
	// gen and enc are the workload's own data for the layer probes: one
	// tenant's generated dataset and its v2 re-encoding.
	gen, enc *workload.Dataset
}

// workloads maps a name to its set-up; everything a set-up does is timed
// as setup_s.
var workloads = map[string]func(cfg *config) (*instance, error){
	"batch-vanilla": func(cfg *config) (*instance, error) { return setupBatch(cfg, false) },
	"batch-skipper": func(cfg *config) (*instance, error) { return setupBatch(cfg, true) },
	"serve-micro":   func(cfg *config) (*instance, error) { return setupServe(cfg, false) },
	"serve-dash":    func(cfg *config) (*instance, error) { return setupServe(cfg, true) },
	"ingest-v2":     setupIngest,
}

// recorder collects one connection's samples for one phase.
type recorder struct {
	// layers turns on the per-op counters of the per-layer metrics.
	layers bool
	spans  *spanRecorder // nil outside the traced phase

	wallMS []float64 // host time per op
	roundS []float64 // host time per round, verification included
	failed int
	err    string // first failure, for the report
	// digest is the hash of the first op's result rows.
	digest string
	// sum holds counter totals in whole units (bytes, GETs, virtual
	// microseconds, nanoseconds): integer sums divide to the same per-op
	// value however many identical rounds a phase fits, which float sums
	// of seconds do not.
	sum map[string]int64
	// Serving workloads: per-op response fields, microseconds.
	execUS, queueUS, wireUS []float64
}

func newRecorder(layers bool, spans *spanRecorder) *recorder {
	return &recorder{layers: layers, spans: spans, sum: make(map[string]int64)}
}

func (r *recorder) add(counter string, v int64) { r.sum[counter] += v }

// done records one finished op. rows are its result rows, rendered;
// want is the oracle's. A mismatch is a failed op.
func (r *recorder) done(wall time.Duration, err error, rows, want []string) {
	r.wallMS = append(r.wallMS, float64(wall)/1e6)
	if err == nil && !slices.Equal(rows, want) {
		err = fmt.Errorf("rows differ from the oracle: got %d rows %.120q, want %d rows %.120q", len(rows), rows, len(want), want)
	}
	if err != nil {
		r.failed++
		if r.err == "" {
			r.err = err.Error()
		}
	}
}

func digestRows(rows []string) string {
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// phase is the outcome of one timed phase over all connections.
type phase struct {
	recs     []*recorder
	wall     time.Duration
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	heapPeak uint64
}

func (p *phase) ops() int {
	n := 0
	for _, r := range p.recs {
		n += len(r.wallMS)
	}
	return n
}

func (p *phase) failed() int {
	n := 0
	for _, r := range p.recs {
		n += r.failed
	}
	return n
}

func (p *phase) firstErr() string {
	for _, r := range p.recs {
		if r.err != "" {
			return r.err
		}
	}
	return ""
}

// opsPerS is the throughput of the phase: per connection, the ops of a
// round over the median round time, summed over connections. Every
// round of a connection is the same work, so the median round is the
// machine's undisturbed rate; total ops over total wall would charge the
// workload for every hiccup of a shared host.
func (p *phase) opsPerS() float64 {
	var s float64
	for _, r := range p.recs {
		if len(r.roundS) > 0 {
			s += float64(len(r.wallMS)) / float64(len(r.roundS)) / median(r.roundS)
		}
	}
	return s
}

func (p *phase) walls() []float64 {
	var all []float64
	for _, r := range p.recs {
		all = append(all, r.wallMS...)
	}
	sort.Float64s(all)
	return all
}

// perOp is a counter's per-op mean. Connections replay different
// streams and may fit different numbers of rounds, so the mean is taken
// per connection first: each is exact, and so is their mean.
func (p *phase) perOp(counter string) float64 {
	var s float64
	for _, r := range p.recs {
		if n := len(r.wallMS); n > 0 {
			s += float64(r.sum[counter]) / float64(n)
		}
	}
	return s / float64(len(p.recs))
}

// ratio is the per-connection mean of num/den.
func (p *phase) ratio(num, den string) float64 {
	var s float64
	for _, r := range p.recs {
		if d := r.sum[den]; d > 0 {
			s += float64(r.sum[num]) / float64(d)
		}
	}
	return s / float64(len(p.recs))
}

// runPhase runs warm rounds on every connection until seconds have
// passed (at least one round each) and returns the samples. sampleHeap
// polls the live heap beside the load, for host.heap_peak_mb.
func runPhase(inst *instance, seconds float64, layers, sampleHeap bool, spanRecs []*spanRecorder) *phase {
	p := &phase{recs: make([]*recorder, inst.conns)}
	for c := range p.recs {
		var sr *spanRecorder
		if spanRecs != nil {
			sr = spanRecs[c]
		}
		p.recs[c] = newRecorder(layers, sr)
	}
	stopHeap := func() {}
	if sampleHeap {
		stopHeap = watchHeap(&p.heapPeak)
	}
	runtime.GC()
	runtime.ReadMemStats(&p.mem0)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < inst.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				t0 := time.Now()
				inst.round(c, p.recs[c])
				now := time.Now()
				p.recs[c].roundS = append(p.recs[c].roundS, now.Sub(t0).Seconds())
				if !now.Before(deadline) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	runtime.ReadMemStats(&p.mem1)
	stopHeap()
	return p
}

// warmUp runs the instance's warm-up rounds and discards the samples,
// except that a failing warm-up op is reported.
func warmUp(inst *instance) error {
	var wg sync.WaitGroup
	recs := make([]*recorder, inst.conns)
	for c := range recs {
		recs[c] = newRecorder(false, nil)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < inst.warmupRounds; i++ {
				inst.round(c, recs[c])
			}
		}(c)
	}
	wg.Wait()
	for _, r := range recs {
		if r.err != "" {
			return fmt.Errorf("warm-up: %s", r.err)
		}
	}
	return nil
}

// watchHeap samples the bytes of live heap objects every 20 ms (a
// runtime/metrics read does not stop the world) and keeps the peak.
func watchHeap(peak *uint64) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > *peak {
				*peak = v
			}
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// percentile reads the q-quantile of sorted values (nearest rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
