package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// A nil trace must accept every recording call without panicking or
// allocating observable state — tracing-off paths lean on this.
func TestNilQueryTraceIsInert(t *testing.T) {
	var qt *QueryTrace
	if qt.Enabled() {
		t.Fatal("nil trace reports Enabled")
	}
	id := qt.Begin(CatFetch, "x")
	qt.End(id)
	ph := qt.BeginPhase(CatExecute, "run")
	qt.EndPhase(ph)
	qt.Emit(CatDecode, "y", time.Now())
	qt.EmitVirt(CatStall, "z", time.Now(), 0, time.Second)
	qt.SetLimit(1)
	if qt.Spans() != nil || qt.Dropped() != 0 || qt.ExportTrace() != nil {
		t.Fatal("nil trace returned state")
	}
}

func TestSpanHierarchyAndClocks(t *testing.T) {
	qt := NewQueryTrace("q1", 3, "SELECT 1")
	root := qt.BeginPhase(CatQuery, "q1")
	adm := qt.Begin(CatAdmission, "wait")
	qt.End(adm)
	exec := qt.BeginPhase(CatExecute, "run")
	qt.EmitVirt(CatFetch, "obj-1", time.Now(), 2*time.Second, 5*time.Second)
	qt.EndPhaseVirt(exec, 5*time.Second)
	qt.EndPhase(root)

	spans := qt.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byName := map[string]Span{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	if byName["wait"].Parent != byName["q1"].ID {
		t.Errorf("admission parent = %d, want root %d", byName["wait"].Parent, byName["q1"].ID)
	}
	if byName["run"].Parent != byName["q1"].ID {
		t.Errorf("execute parent = %d, want root %d", byName["run"].Parent, byName["q1"].ID)
	}
	if byName["obj-1"].Parent != byName["run"].ID {
		t.Errorf("fetch parent = %d, want execute %d", byName["obj-1"].Parent, byName["run"].ID)
	}
	fetch := byName["obj-1"]
	if !fetch.HasVirt || fetch.VirtStart != 2*time.Second || fetch.VirtEnd != 5*time.Second {
		t.Errorf("fetch virtual bounds = %v..%v (HasVirt=%v), want 2s..5s", fetch.VirtStart, fetch.VirtEnd, fetch.HasVirt)
	}
	if fetch.WallEnd < fetch.WallStart {
		t.Errorf("fetch wall bounds inverted: %v..%v", fetch.WallStart, fetch.WallEnd)
	}
	// Root has no virtual stamps; the phase-closing virt on exec sticks.
	if ex := byName["run"]; ex.HasVirt {
		t.Errorf("wall-only phase acquired virtual stamps: %+v", ex)
	}
}

// The span cap must count, not store, overflow — a scan over thousands
// of segments cannot balloon a trace.
func TestSpanLimitDropsAndCounts(t *testing.T) {
	qt := NewQueryTrace("q", 0, "")
	qt.SetLimit(3)
	for i := 0; i < 10; i++ {
		qt.Emit(CatFetch, "seg", time.Now())
	}
	if n := len(qt.Spans()); n != 3 {
		t.Fatalf("stored %d spans, want 3", n)
	}
	if d := qt.Dropped(); d != 7 {
		t.Fatalf("dropped = %d, want 7", d)
	}
	// End of a dropped span (id 0) must be harmless.
	qt.End(0)
}

// Several goroutines may record into one trace at once; it must stay
// consistent under -race.
func TestConcurrentRecording(t *testing.T) {
	qt := NewQueryTrace("q", 0, "")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := qt.Begin(CatDecode, "d")
				qt.End(id)
			}
		}()
	}
	wg.Wait()
	if n := len(qt.Spans()); n != 400 {
		t.Fatalf("recorded %d spans, want 400", n)
	}
	for _, sp := range qt.Spans() {
		if sp.WallEnd < sp.WallStart {
			t.Fatalf("span %d has inverted bounds", sp.ID)
		}
	}
}

func TestWriteChromeProducesValidJSON(t *testing.T) {
	qt := NewQueryTrace("q7", 2, "SELECT 1")
	root := qt.BeginPhase(CatQuery, "q7")
	qt.EmitVirt(CatFetch, "lineitem/3", time.Now(), time.Second, 3*time.Second)
	qt.Emit(CatDecode, "lineitem/3", time.Now())
	qt.EndPhase(root)

	var buf bytes.Buffer
	if err := WriteChrome(&buf, qt.ExportTrace()); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome output is not a JSON array: %v", err)
	}
	var complete, meta int
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			complete++
		case "M":
			meta++
		}
	}
	if complete != 3 {
		t.Errorf("wall export has %d complete events, want 3", complete)
	}
	if meta == 0 {
		t.Error("no metadata (process/thread naming) events")
	}

	// A span the simulation stamped carries its virtual bounds as args.
	if !strings.Contains(buf.String(), `"virt_start_s":1`) || !strings.Contains(buf.String(), `"virt_end_s":3`) {
		t.Errorf("the fetch span's virtual bounds are not in the export: %s", buf.String())
	}
}

func TestExportSummary(t *testing.T) {
	qt := NewQueryTrace("q9", 1, "")
	qt.Emit(CatFetch, "a", time.Now())
	qt.Emit(CatFetch, "b", time.Now())
	qt.Emit(CatDecode, "a", time.Now())
	s := qt.ExportTrace().Summary()
	if !strings.Contains(s, "q9") || !strings.Contains(s, "3 spans") {
		t.Fatalf("summary missing header: %q", s)
	}
	if !strings.Contains(s, "fetch") || !strings.Contains(s, "decode") {
		t.Fatalf("summary missing categories: %q", s)
	}
}

// TestRenderFormat pins the one span-tree rendering every front end
// prints: the summary (virtual totals only where the simulation stamped
// spans), children indented under their parents in recording order,
// virtual bounds and device labels only where present, the device lane
// last.
func TestRenderFormat(t *testing.T) {
	e := &Export{
		ID: "t2-9", Tenant: 2, Dropped: 3,
		Spans: []Span{
			{ID: 1, Cat: CatQuery, Name: "t2.q#0", WallEnd: 2 * time.Millisecond, HasVirt: true, VirtEnd: 30 * time.Second},
			{ID: 2, Parent: 1, Cat: CatExecute, Name: "skipper", WallStart: 100 * time.Microsecond, WallEnd: 1900 * time.Microsecond},
			{ID: 3, Parent: 2, Cat: CatRetry, Name: "t2/orders/0001 attempt 2", WallStart: 400 * time.Microsecond, WallEnd: 500 * time.Microsecond, HasVirt: true, VirtStart: 10 * time.Second, VirtEnd: 10500 * time.Millisecond, Device: 1},
			{ID: 4, Parent: 1, Cat: CatDrain, Name: "render rows", WallStart: 1900 * time.Microsecond, WallEnd: 2 * time.Millisecond},
		},
		Device: []Span{
			{ID: 1, Cat: CatSwitch, Name: "g0->g1", WallStart: 300 * time.Microsecond, WallEnd: 350 * time.Microsecond, HasVirt: true, VirtEnd: 10 * time.Second},
		},
	}
	var buf bytes.Buffer
	e.Render(&buf)
	want := `trace t2-9 (tenant 2, 5 spans, 3 dropped)
  query         1 spans           2ms wall         30s virtual
  execute       1 spans         1.8ms wall
  retry         1 spans         100µs wall       500ms virtual
  drain         1 spans         100µs wall
  switch        1 spans          50µs wall         10s virtual
query t2.q#0  wall 0s..2ms  virt 0s..30s
  execute skipper  wall 100µs..1.9ms
    retry t2/orders/0001 attempt 2  wall 400µs..500µs  virt 10s..10.5s  d1
  drain render rows  wall 1.9ms..2ms
device lane (1 spans)
switch g0->g1  wall 300µs..350µs  virt 0s..10s
`
	if got := buf.String(); got != want {
		t.Fatalf("rendered\n%s\nwant\n%s", got, want)
	}
}

// TestDeviceLane: a query's device lane is a recorder of its own — same
// identity and wall origin, spans exported beside the query's, never among
// them (the benchmark attributes self time by Spans) — and an untraced
// query has none.
func TestDeviceLane(t *testing.T) {
	var off *QueryTrace
	if off.DeviceLane() != nil {
		t.Fatal("an untraced query grew a device lane")
	}
	qt := NewQueryTrace("t0-1", 0, "SELECT 1")
	if e := qt.ExportTrace(); e.Device != nil {
		t.Fatalf("a trace nobody asked a lane of exports one: %+v", e.Device)
	}
	lane := qt.DeviceLane()
	if lane != qt.DeviceLane() || lane.Origin() != qt.Origin() || lane.ID != qt.ID {
		t.Fatal("the device lane is not one child recorder sharing the query's identity and origin")
	}
	qt.Emit(CatPlan, "plan", qt.Origin())
	lane.EmitVirtDev(CatTransfer, "obj t0 q", qt.Origin(), 0, 10*time.Second, 1)
	lane.SetLimit(1)
	lane.EmitVirtDev(CatSwitch, "g0->g1", qt.Origin(), 0, 10*time.Second, 1) // dropped
	e := qt.ExportTrace()
	if len(e.Spans) != 1 || e.Spans[0].Cat != CatPlan || len(e.Device) != 1 || e.Device[0].Cat != CatTransfer || e.Dropped != 1 {
		t.Fatalf("export mixes the lanes or loses the drop count: %+v", e)
	}

	// The Chrome export draws the lane: the device's spans on lanes of
	// their own, labeled by device.
	var buf bytes.Buffer
	if err := WriteChrome(&buf, e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"transfer d1"`) || !strings.Contains(buf.String(), `"name":"obj t0 q"`) {
		t.Fatalf("chrome export lacks the device lane: %s", buf.String())
	}
}
