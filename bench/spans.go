package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/trace"
)

// The benchmark's own in-memory span recorder. During the traced pass it
// records a span around every call the benchmark makes into a layer, and
// adopts the spans the program's existing public trace switch produces
// (trace.QueryTrace) as children of the call that caused them. Nothing is
// written until the run ends.

// span is one timed interval of one op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = none
	Op     int    `json:"op"`     // ops of one connection count from 1
	Conn   int    `json:"conn"`
	Name   string `json:"name"`
	// Pkg is the layer charged with the span's self time ("" = none: the
	// op's root span, whose uncovered time is reported as unattributed).
	Pkg string `json:"pkg,omitempty"`
	// Src is 0 for the benchmark's own spans and k for the k-th program
	// trace adopted into the op (a batch op carries one per tenant).
	Src int `json:"src,omitempty"`
	// Wait marks a program span inside which the client is blocked on the
	// simulated device: whatever runs meanwhile is another tenant or the
	// device simulation, never this client.
	Wait  bool  `json:"wait,omitempty"`
	Start int64 `json:"start_ns"` // since the recorder's origin
	End   int64 `json:"end_ns"`
}

// maxSpansKept caps what one connection keeps for the span file; self
// times are folded in op by op, so the cap never changes a metric.
const maxSpansKept = 40000

// spanRecorder belongs to one connection, so it needs no lock. A nil
// recorder ignores every call: untraced passes pay one branch.
type spanRecorder struct {
	origin time.Time
	conn   int
	nextID int
	op     int
	cur    []span // spans of the op in progress
	kept   []span
	// Folded per op by endOp.
	selfNS       map[string]int64
	unattributed int64
	opWallNS     int64
}

func newSpanRecorder(origin time.Time, conn int) *spanRecorder {
	return &spanRecorder{origin: origin, conn: conn, selfNS: make(map[string]int64)}
}

func (r *spanRecorder) enabled() bool { return r != nil }

// beginOp opens the op's root span and returns its id.
func (r *spanRecorder) beginOp() int {
	if r == nil {
		return 0
	}
	r.op++
	r.cur = r.cur[:0]
	return r.begin("op", "", 0)
}

func (r *spanRecorder) begin(name, pkg string, parent int) int {
	if r == nil {
		return 0
	}
	r.nextID++
	r.cur = append(r.cur, span{
		ID: r.nextID, Parent: parent, Op: r.op, Conn: r.conn, Name: name, Pkg: pkg,
		Start: int64(time.Since(r.origin)),
	})
	return r.nextID
}

func (r *spanRecorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.origin))
	for i := len(r.cur) - 1; i >= 0; i-- {
		if r.cur[i].ID == id {
			if r.cur[i].End == 0 { // a span ends once; endOp may find its root already closed
				r.cur[i].End = now
			}
			return
		}
	}
}

// spanByID returns the open op's span with the given id.
func (r *spanRecorder) spanByID(id int) *span {
	for i := range r.cur {
		if r.cur[i].ID == id {
			return &r.cur[i]
		}
	}
	return nil
}

// adopt hangs a program trace under the benchmark span parent. at is the
// trace's wall origin relative to the recorder's.
func (r *spanRecorder) adopt(parent, src int, at int64, spans []trace.Span) {
	if r == nil {
		return
	}
	ids := make(map[int]int, len(spans))
	for _, sp := range spans {
		r.nextID++
		ids[sp.ID] = r.nextID
		p := parent
		if m, ok := ids[sp.Parent]; ok && sp.Parent != 0 {
			p = m
		}
		pkg, wait := layerOf(sp)
		r.cur = append(r.cur, span{
			ID: r.nextID, Parent: p, Op: r.op, Conn: r.conn,
			Name: sp.Cat + ":" + sp.Name, Pkg: pkg, Src: src, Wait: wait,
			Start: at + int64(sp.WallStart), End: at + int64(sp.WallEnd),
		})
	}
}

// layerOf maps a program span category to the package whose work it
// times. An execute span's self time is the engine that ran the query:
// the pull plan's joins and aggregation (engine) or mjoin.Run outside
// its cycles plus the shaping stage (mjoin; the shaping stage has no
// span of its own yet).
func layerOf(sp trace.Span) (pkg string, wait bool) {
	switch sp.Cat {
	case trace.CatPlan:
		return "sql", false
	case trace.CatAdmission, trace.CatDrain:
		return "server", false
	case trace.CatQuery, trace.CatPrefetch, trace.CatRetry:
		return "skipper", false
	case trace.CatExecute:
		if sp.Name == "vanilla" {
			return "engine", false
		}
		return "mjoin", false
	case trace.CatOp:
		return "engine", false
	case trace.CatCycle:
		return "mjoin", false
	case trace.CatDecode:
		return "segment", false
	case trace.CatFetch, trace.CatStall:
		return "csd", true
	}
	return "", false
}

// endOp closes the op's root span and folds the op into the per-layer
// self times.
func (r *spanRecorder) endOp(root int) {
	if r == nil {
		return
	}
	r.end(root)
	byPkg, un, total := attribute(r.cur)
	for p, ns := range byPkg {
		r.selfNS[p] += ns
	}
	r.unattributed += un
	r.opWallNS += total
	if room := maxSpansKept - len(r.kept); room > 0 {
		if len(r.cur) < room {
			room = len(r.cur)
		}
		r.kept = append(r.kept, r.cur[:room]...)
	}
}

// attribute splits one op's wall time (its first span, the root) among
// layers. Self time is a span's duration minus what its children cover;
// with several program traces in one op (a batch op simulates five
// tenants on one goroutine, and their wall-clock spans overlap) every
// instant is still charged exactly once:
//
//   - per source, the innermost span covering the instant stands for it;
//   - a program source that is not waiting wins, the most recently
//     started one first (a tenant that yields inside a virtual processing
//     charge still looks busy, so the split between tenants' layers is
//     approximate; the total is not);
//   - if every program source is waiting, the device simulation (csd and
//     the vtime scheduler under it) is running;
//   - otherwise the benchmark's own innermost span is charged, and time
//     only the root covers is unattributed.
func attribute(spans []span) (byPkg map[string]int64, unattributed, total int64) {
	byPkg = make(map[string]int64)
	if len(spans) == 0 {
		return byPkg, 0, 0
	}
	root := spans[0]
	total = root.End - root.Start
	cuts := make([]int64, 0, 2*len(spans))
	for _, sp := range spans {
		if sp.End <= sp.Start {
			continue
		}
		cuts = append(cuts, clamp(sp.Start, root), clamp(sp.End, root))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	// Spans sorted by start let each elementary interval stop scanning at
	// the first span that starts after it.
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return spans[order[i]].Start < spans[order[j]].Start })
	inner := make(map[int]int) // source -> index of its innermost covering span
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a == b {
			continue
		}
		clear(inner)
		for _, idx := range order {
			sp := &spans[idx]
			if sp.Start > a {
				break
			}
			if sp.End >= b {
				inner[sp.Src] = idx // later start = deeper in that source's tree
			}
		}
		busy, waiting := -1, false
		for src, idx := range inner {
			if src == 0 {
				continue
			}
			if spans[idx].Wait {
				waiting = true
			} else if busy < 0 || spans[idx].Start > spans[busy].Start {
				busy = idx
			}
		}
		pkg := ""
		switch {
		case busy >= 0:
			pkg = spans[busy].Pkg
		case waiting:
			pkg = "csd"
		default:
			if idx, ok := inner[0]; ok {
				pkg = spans[idx].Pkg
			}
		}
		if pkg == "" {
			unattributed += b - a
		} else {
			byPkg[pkg] += b - a
		}
	}
	return byPkg, unattributed, total
}

func clamp(t int64, root span) int64 {
	if t < root.Start {
		return root.Start
	}
	if t > root.End {
		return root.End
	}
	return t
}

// writeSpans dumps the kept spans of every connection, once, at exit.
func writeSpans(dir, workload string, recs []*spanRecorder) (string, error) {
	var all []span
	for _, r := range recs {
		if r != nil {
			all = append(all, r.kept...)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".json")
	data, err := json.Marshal(all)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
