package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// smoke runs every workload, both passes, at the tiny scale.
func smoke(t *testing.T) *report {
	t.Helper()
	cfg := &config{seed: 7, scale: scales["tiny"], seconds: 0.05, outDir: t.TempDir()}
	var names []string
	for _, d := range workloadDefs {
		names = append(names, d.Name)
	}
	rep, err := runSuite(cfg, names, []bool{false, true}, false, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmoke guards the benchmark against API drift: the JSON carries
// exactly the declared workloads and metrics, every op matches its
// oracle, the exact metrics repeat, the two batch engines agree on the
// rows, and the in-process server leaves no goroutine behind.
func TestSmoke(t *testing.T) {
	before := runtime.NumGoroutine()
	a := smoke(t)
	b := smoke(t)

	if got, want := len(a.Runs), 2*len(workloadDefs); got != want {
		t.Fatalf("%d runs, want %d", got, want)
	}
	digests := make(map[string]string)
	for i, r := range a.Runs {
		if want := workloadDefs[i/2].Name; r.Workload != want {
			t.Errorf("run %d is %s, want %s", i, r.Workload, want)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %s", r.Workload, r.Traced, r.Correct, r.Attempted, r.Failed, r.FirstError)
		}
		defs := endToEnd
		if r.Traced {
			defs = perLayer
		}
		var got []string
		for name, v := range r.Metrics {
			got = append(got, name)
			if want := unitOf(defs)[name]; v.Unit != want {
				t.Errorf("%s: %s has unit %q, want %q", r.Workload, name, v.Unit, want)
			}
		}
		sort.Strings(got)
		if want := metricNames(defs); !reflect.DeepEqual(got, want) {
			t.Errorf("%s traced=%v reports %v, want %v", r.Workload, r.Traced, got, want)
		}
		if !r.Traced {
			for name, v := range r.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", r.Workload, name, v.Value)
				}
			}
			digests[r.Workload] = r.ResultDigest
			continue
		}
		rb := b.Runs[i]
		for _, d := range exactMetrics {
			if va, vb := r.Metrics[d.Name].Value, rb.Metrics[d.Name].Value; va != vb {
				t.Errorf("%s: exact metric %s differs between two runs: %v and %v", r.Workload, d.Name, va, vb)
			}
		}
		if r.ResultDigest != rb.ResultDigest {
			t.Errorf("%s: result digest differs between two runs", r.Workload)
		}
		if _, err := os.Stat(r.SpanFile); err != nil {
			t.Errorf("%s: span file: %v", r.Workload, err)
		}
	}
	if digests["batch-vanilla"] == "" || digests["batch-vanilla"] != digests["batch-skipper"] {
		t.Errorf("batch-vanilla and batch-skipper disagree on the rows: %q and %q", digests["batch-vanilla"], digests["batch-skipper"])
	}

	// Shutdown has returned for every server; its goroutines must be gone.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestManifest keeps BENCHMARK.json and manifest.go the same thing.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, declared any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(manifestJSON(), &declared); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, declared) {
		t.Error("BENCHMARK.json differs from manifest.go; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
	for _, d := range workloadDefs {
		if len(d.Why) > 200 || strings.Contains(d.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", d.Name, len(d.Why))
		}
		if _, ok := workloads[d.Name]; !ok {
			t.Errorf("workload %s is declared but has no set-up", d.Name)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestAttribute pins the rule that splits an op among layers.
func TestAttribute(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "call", Pkg: "skipper", Start: 10, End: 90},
		// Tenant 1 decodes, then waits; tenant 2 computes during the wait.
		{ID: 3, Parent: 2, Name: "execute", Pkg: "engine", Src: 1, Start: 20, End: 80},
		{ID: 4, Parent: 3, Name: "decode", Pkg: "segment", Src: 1, Start: 20, End: 30},
		{ID: 5, Parent: 3, Name: "fetch", Pkg: "csd", Src: 1, Wait: true, Start: 40, End: 70},
		{ID: 6, Parent: 2, Name: "cycle", Pkg: "mjoin", Src: 2, Start: 50, End: 60},
	}
	got, un, total := attribute(spans)
	want := map[string]int64{
		"skipper": 20, // 10-20 and 80-90: the call outside any tenant's trace
		"segment": 10, // 20-30
		"engine":  20, // 30-40 and 70-80
		"csd":     20, // 40-50 and 60-70: every tenant waiting
		"mjoin":   10, // 50-60: tenant 2 runs inside tenant 1's wait
	}
	if !reflect.DeepEqual(got, want) || un != 20 || total != 100 {
		t.Errorf("attribute = %v, unattributed %d of %d; want %v, 20 of 100", got, un, total, want)
	}
}
