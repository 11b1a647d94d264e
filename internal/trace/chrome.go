package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Chrome trace-event export: completed traces render as "X" (complete)
// events in the JSON array format that chrome://tracing and Perfetto
// load directly. One traced query becomes one process (pid = a
// per-trace index, labeled with tenant and trace id); categories map to
// threads (tid), so fetches, decodes, stalls and operator work each get
// their own lane under the query's root span, and the device lane's
// switches, transfers and crash windows follow them.

// chromeEvent is one trace-event JSON object.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeMeta is a metadata event (process/thread naming).
type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid,omitempty"`
	Args map[string]any `json:"args"`
}

// laneOrder fixes the tid per category so every trace renders with the
// same lane layout.
var laneOrder = []string{CatQuery, CatAdmission, CatPlan, CatExecute, CatCycle, CatPrefetch, CatFetch, CatDecode, CatStall, CatOp, CatDrain, CatRetry, CatSwitch, CatTransfer, CatDown}

func laneOf(cat string) int {
	for i, c := range laneOrder {
		if c == cat {
			return i
		}
	}
	return len(laneOrder)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteChrome renders the traces as one Chrome trace-event JSON array on
// the wall clock — what the hardware did; a span the simulation stamped
// carries its virtual bounds as args. Load the output in chrome://tracing
// or https://ui.perfetto.dev.
func WriteChrome(w io.Writer, traces ...*Export) error {
	var events []any
	for pid, e := range traces {
		if e == nil {
			continue
		}
		events = append(events, chromeMeta{
			Name: "process_name", Ph: "M", PID: pid,
			Args: map[string]any{"name": fmt.Sprintf("t%d %s", e.Tenant, e.ID)},
		})
		seen := map[int]bool{}
		for _, lane := range [][]Span{e.Spans, e.Device} {
			for _, sp := range lane {
				// Device-labeled spans (multi-device fleets) get their own lane
				// set past the shared ones: tid strides by device so "retry d2"
				// never collides with an unlabeled lane, and unlabeled spans
				// keep the exact tids single-device traces always had.
				tid := laneOf(sp.Cat)
				laneName := sp.Cat
				if sp.Device > 0 {
					tid += sp.Device * (len(laneOrder) + 1)
					laneName = fmt.Sprintf("%s d%d", sp.Cat, sp.Device)
				}
				if !seen[tid] {
					seen[tid] = true
					events = append(events, chromeMeta{
						Name: "thread_name", Ph: "M", PID: pid, TID: tid,
						Args: map[string]any{"name": laneName},
					})
					events = append(events, chromeMeta{
						Name: "thread_sort_index", Ph: "M", PID: pid, TID: tid,
						Args: map[string]any{"sort_index": tid},
					})
				}
				ev := chromeEvent{
					Name: sp.Name, Cat: sp.Cat, Ph: "X",
					TS: us(sp.WallStart), Dur: us(sp.WallEnd - sp.WallStart), PID: pid, TID: tid,
				}
				if sp.HasVirt {
					ev.Args = map[string]any{"virt_start_s": sp.VirtStart.Seconds(), "virt_end_s": sp.VirtEnd.Seconds()}
				}
				events = append(events, ev)
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}
