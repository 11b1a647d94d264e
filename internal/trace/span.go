// Package trace is the one trace model of the repository: hierarchical
// spans stamped with both clocks the system runs on — wall time (what the
// hardware did) and virtual time (what the simulated storage did). A
// QueryTrace is the per-request view a person debugging one slow query
// needs: admission queue wait, planning, prefetch, every segment fetch
// and decode, operator execution and the response drain, nested under one
// root. The devices record into a recorder of the same type
// (csd.Config.Trace). Experiments assert on aggregated Stats; humans read
// the span tree (Export.Render) or load the Chrome export (WriteChrome).
//
// Tracing is pay-for-use. Every recording method is safe — and a
// near-free two-instruction exit — on a nil *QueryTrace, so the hot
// path carries no allocations and no time.Now calls when tracing is
// off; call sites that would build a label string guard on Enabled
// first. Recording is mutex-guarded, so other goroutines (the prefetch
// proc, a fleet's devices) may record alongside the query's own.
package trace

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Span categories, used as Chrome trace-event categories and for lane
// assignment in the viewer.
const (
	CatQuery     = "query"     // root: one per traced query
	CatAdmission = "admission" // queue wait for an execution slot
	CatPlan      = "plan"      // SQL text -> executable spec
	CatExecute   = "execute"   // the engine run, parent of the spans below
	CatPrefetch  = "prefetch"  // demand disclosure to the prefetcher
	CatFetch     = "fetch"     // one segment GET (demand path)
	CatDecode    = "decode"    // one segment decode
	CatStall     = "stall"     // client blocked awaiting an arrival
	CatRetry     = "retry"     // backoff + re-request after a retryable fault
	CatCycle     = "cycle"     // one MJoin request/arrival cycle
	CatOp        = "op"        // operator execution (shaping, drain)
	CatDrain     = "drain"     // response rendering and write-back

	// Device-side categories, recorded by a csd.CSD into its recorder.
	CatSwitch   = "switch"   // one group switch (spin-down + spin-up)
	CatTransfer = "transfer" // one GET, from its arrival at the device to its delivery
	CatDown     = "down"     // one crash window
)

// Span is one timed piece of a traced query. Wall offsets are measured
// from the trace origin (the moment the request entered the server);
// virtual offsets are simulation time and present only when HasVirt is
// set — spans recorded outside a simulated run carry wall time alone.
type Span struct {
	// ID is unique within the trace; Parent is the enclosing span's ID
	// (0 for the root).
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Cat    string `json:"cat"`
	Name   string `json:"name"`
	// WallStart/WallEnd are offsets from the trace origin.
	WallStart time.Duration `json:"wall_start_ns"`
	WallEnd   time.Duration `json:"wall_end_ns"`
	// VirtStart/VirtEnd are simulation-clock offsets, valid iff HasVirt.
	VirtStart time.Duration `json:"virt_start_ns,omitempty"`
	VirtEnd   time.Duration `json:"virt_end_ns,omitempty"`
	HasVirt   bool          `json:"has_virt,omitempty"`
	// Device labels work tied to one device of a multi-device fleet: a
	// retry or failover re-request in a query's trace, every span a device
	// records. 0 means unlabeled — single-device traces, the primary
	// device, and device-agnostic spans; the Chrome export gives each
	// labeled device its own lane set ("cat dN").
	Device int `json:"device,omitempty"`
}

// DefaultSpanLimit bounds one trace: a query over a large dataset
// records a span per segment fetch and decode, and an unbounded trace
// would turn a scan into an allocation storm. Past the limit spans are
// counted, not stored.
const DefaultSpanLimit = 8192

// QueryTrace accumulates the spans of one traced query. Construct with
// NewQueryTrace; a nil *QueryTrace ignores every call, which is how
// tracing-off paths stay free.
type QueryTrace struct {
	// ID is the trace identifier returned to the client (response
	// trace_id; retrievable with the TRACE verb).
	ID string
	// Tenant and SQL identify the traced request.
	Tenant int
	SQL    string

	mu      sync.Mutex
	origin  time.Time
	spans   []Span
	nextID  int
	phase   int // current parent for new spans
	limit   int
	dropped int
	device  *QueryTrace // see DeviceLane
}

// NewQueryTrace starts a trace; the origin (wall zero) is now.
func NewQueryTrace(id string, tenant int, sqlText string) *QueryTrace {
	return &QueryTrace{
		ID:     id,
		Tenant: tenant,
		SQL:    sqlText,
		origin: time.Now(),
		limit:  DefaultSpanLimit,
	}
}

// Enabled reports whether spans are being recorded — the guard hot
// paths use before building label strings.
func (t *QueryTrace) Enabled() bool { return t != nil }

// Origin returns the trace's wall-clock zero.
func (t *QueryTrace) Origin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.origin
}

// alloc appends a span under the current phase and returns its slot, nil
// past the limit. Caller holds mu; the slot is valid until the next alloc.
func (t *QueryTrace) alloc(cat, name string) *Span {
	if len(t.spans) >= t.limit {
		t.dropped++
		return nil
	}
	t.nextID++
	t.spans = append(t.spans, Span{ID: t.nextID, Parent: t.phase, Cat: cat, Name: name})
	return &t.spans[len(t.spans)-1]
}

// begin opens a span under the current phase — stamped with virt when
// hasVirt, made the current phase itself when phase — and returns its
// handle (0 on a nil trace or past the limit; ending 0 is a no-op).
func (t *QueryTrace) begin(cat, name string, virt time.Duration, hasVirt, phase bool) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.alloc(cat, name)
	if sp == nil {
		return 0
	}
	sp.WallStart = now.Sub(t.origin)
	sp.VirtStart, sp.HasVirt = virt, hasVirt
	if phase {
		t.phase = sp.ID
	}
	return sp.ID
}

// end closes an open span; virt < 0 leaves a stamped span's virtual end
// at its start. Closing the current phase restores its parent as current.
func (t *QueryTrace) end(id int, virt time.Duration) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if sp := &t.spans[i]; sp.ID == id {
			sp.WallEnd = now.Sub(t.origin)
			if sp.VirtEnd = sp.VirtStart; sp.HasVirt && virt >= 0 {
				sp.VirtEnd = virt
			}
			if t.phase == id {
				t.phase = sp.Parent
			}
			return
		}
	}
}

// Begin opens a span under the current phase and returns its handle for
// End. Every recording method is safe on a nil trace.
func (t *QueryTrace) Begin(cat, name string) int { return t.begin(cat, name, 0, false, false) }

// End closes a span opened by Begin.
func (t *QueryTrace) End(id int) { t.end(id, -1) }

// BeginPhase opens a span and makes it the parent of subsequently
// recorded spans until EndPhase. Phases nest: EndPhase restores the
// phase that was current when BeginPhase ran.
func (t *QueryTrace) BeginPhase(cat, name string) int { return t.begin(cat, name, 0, false, true) }

// BeginPhaseVirt is BeginPhase with a virtual-clock start stamp.
func (t *QueryTrace) BeginPhaseVirt(cat, name string, virt time.Duration) int {
	return t.begin(cat, name, virt, true, true)
}

// EndPhase closes a phase span and restores its parent as the current
// phase.
func (t *QueryTrace) EndPhase(id int) { t.end(id, -1) }

// EndPhaseVirt is EndPhase with a virtual-clock end stamp.
func (t *QueryTrace) EndPhaseVirt(id int, virt time.Duration) { t.end(id, virt) }

// Emit records a completed wall-only span that started at wallStart —
// the one-call form for work that was timed anyway. Safe on nil, but
// call sites that build name strings should guard on Enabled first.
func (t *QueryTrace) Emit(cat, name string, wallStart time.Time) {
	t.emit(cat, name, wallStart, 0, 0, false, 0)
}

// EmitVirt records a completed span with explicit virtual bounds.
func (t *QueryTrace) EmitVirt(cat, name string, wallStart time.Time, virtFrom, virtTo time.Duration) {
	t.emit(cat, name, wallStart, virtFrom, virtTo, true, 0)
}

// EmitVirtDev is EmitVirt with a device label, for spans tied to one
// device of a multi-device fleet.
func (t *QueryTrace) EmitVirtDev(cat, name string, wallStart time.Time, virtFrom, virtTo time.Duration, device int) {
	t.emit(cat, name, wallStart, virtFrom, virtTo, true, device)
}

func (t *QueryTrace) emit(cat, name string, wallStart time.Time, virtFrom, virtTo time.Duration, hasVirt bool, device int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp := t.alloc(cat, name); sp != nil {
		sp.WallStart, sp.WallEnd = wallStart.Sub(t.origin), now.Sub(t.origin)
		sp.VirtStart, sp.VirtEnd, sp.HasVirt = virtFrom, virtTo, hasVirt
		sp.Device = device
	}
}

// DeviceLane returns the recorder for the devices that serve this query: a
// child trace with the query's identity and wall origin, whose spans
// ExportTrace carries as Export.Device — beside the query's own spans,
// never among them. An untraced (nil) query has no device lane.
func (t *QueryTrace) DeviceLane() *QueryTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.device == nil {
		t.device = &QueryTrace{ID: t.ID, Tenant: t.Tenant, origin: t.origin, limit: t.limit}
	}
	return t.device
}

// Spans returns a copy of the recorded spans, in recording order.
func (t *QueryTrace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Dropped reports how many spans the limit discarded.
func (t *QueryTrace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SetLimit overrides the span cap (tests; 0 keeps the default).
func (t *QueryTrace) SetLimit(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.mu.Lock()
	t.limit = n
	t.mu.Unlock()
}

// Export is the wire shape of one completed trace: the TRACE verb's
// payload and the unit of Chrome export.
type Export struct {
	ID     string `json:"id"`
	Tenant int    `json:"tenant"`
	SQL    string `json:"sql,omitempty"`
	Spans  []Span `json:"spans"`
	// Device is the query's device lane (QueryTrace.DeviceLane): what the
	// devices did while serving it.
	Device  []Span `json:"device,omitempty"`
	Dropped int    `json:"dropped,omitempty"`
}

// ExportTrace snapshots the trace for the wire.
func (t *QueryTrace) ExportTrace() *Export {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	dev := t.device
	t.mu.Unlock()
	return &Export{
		ID: t.ID, Tenant: t.Tenant, SQL: t.SQL,
		Spans: t.Spans(), Device: dev.Spans(), Dropped: t.Dropped() + dev.Dropped(),
	}
}

// Summary renders a one-level accounting of the trace: per category,
// span count, total wall time and — for spans the simulation stamped —
// total virtual time. The quick look before reading the tree or opening
// the Chrome view.
func (e *Export) Summary() string {
	type agg struct {
		n          int
		wall, virt time.Duration
		hasVirt    bool
	}
	byCat := map[string]*agg{}
	var cats []string
	for _, lane := range [][]Span{e.Spans, e.Device} {
		for _, sp := range lane {
			a := byCat[sp.Cat]
			if a == nil {
				a = &agg{}
				byCat[sp.Cat] = a
				cats = append(cats, sp.Cat)
			}
			a.n++
			a.wall += sp.WallEnd - sp.WallStart
			if sp.HasVirt {
				a.virt += sp.VirtEnd - sp.VirtStart
				a.hasVirt = true
			}
		}
	}
	out := fmt.Sprintf("trace %s (tenant %d, %d spans", e.ID, e.Tenant, len(e.Spans)+len(e.Device))
	if e.Dropped > 0 {
		out += fmt.Sprintf(", %d dropped", e.Dropped)
	}
	out += ")\n"
	for _, c := range cats {
		a := byCat[c]
		out += fmt.Sprintf("  %-10s %4d spans  %12s wall", c, a.n, a.wall.Round(time.Microsecond))
		if a.hasVirt {
			out += fmt.Sprintf("  %10s virtual", a.virt.Round(time.Millisecond))
		}
		out += "\n"
	}
	return out
}

// Render writes the trace for a person — every front end prints traces
// through here: the summary, every span as an indented tree in recording
// order (wall bounds always, virtual bounds when stamped, the device when
// labeled), then the device lane.
func (e *Export) Render(w io.Writer) {
	io.WriteString(w, e.Summary())
	writeTree(w, e.Spans)
	if len(e.Device) > 0 {
		fmt.Fprintf(w, "device lane (%d spans)\n", len(e.Device))
		writeTree(w, e.Device)
	}
}

func writeTree(w io.Writer, spans []Span) {
	children := map[int][]Span{}
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	var walk func(parent, depth int)
	walk = func(parent, depth int) {
		for _, sp := range children[parent] {
			fmt.Fprintf(w, "%*s%s %s  wall %s..%s", 2*depth, "", sp.Cat, sp.Name,
				sp.WallStart.Round(time.Microsecond), sp.WallEnd.Round(time.Microsecond))
			if sp.HasVirt {
				fmt.Fprintf(w, "  virt %s..%s",
					sp.VirtStart.Round(time.Millisecond), sp.VirtEnd.Round(time.Millisecond))
			}
			if sp.Device > 0 {
				fmt.Fprintf(w, "  d%d", sp.Device)
			}
			fmt.Fprintln(w)
			walk(sp.ID, depth+1)
		}
	}
	walk(0, 0)
}
