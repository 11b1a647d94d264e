package mjoin_test

import (
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/mjoin"
	"repro/internal/segment"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// fifoSource delivers requested objects in request order.
type fifoSource struct {
	store map[segment.ObjectID]*segment.Segment
	queue []segment.ObjectID
}

func (s *fifoSource) Request(objs []segment.ObjectID) { s.queue = append(s.queue, objs...) }

func (s *fifoSource) NextArrival() (*segment.Segment, error) {
	id := s.queue[0]
	s.queue = s.queue[1:]
	return s.store[id], nil
}

// drainStream pulls m to its end and returns its rows and statistics.
func drainStream(t *testing.T, m *mjoin.Stream) ([]tuple.Row, mjoin.Stats) {
	t.Helper()
	var rows []tuple.Row
	for {
		b, ok, err := m.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows = b.AppendRows(rows)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	st.Pipe = engine.PipeStats{} // wall-clock decode time
	return rows, st
}

// TestStreamResetAcrossWidths: one Stream, Reset from Q12 (two relations)
// to Q5 (six) and back, keeps its probe chain's arrays across the runs and
// grows them for the wider query; every run's rows, in order, and
// statistics equal those of a new Stream's run of the same query.
func TestStreamResetAcrossWidths(t *testing.T) {
	ds := workload.TPCH(0, workload.TPCHConfig{SF: 8, RowsPerObject: 40, Seed: 3})
	queries := []*mjoin.Query{workload.Q12(ds.Catalog).Join, workload.Q5(ds.Catalog).Join}
	run := func(m *mjoin.Stream, q *mjoin.Query, reset bool) ([]tuple.Row, mjoin.Stats) {
		cfg, src := mjoin.DefaultConfig(len(q.Objects())), &fifoSource{store: ds.Store}
		var err error
		if reset {
			err = m.Reset(q, cfg, src)
		} else {
			m, err = mjoin.NewStream(q, cfg, src)
		}
		if err != nil {
			t.Fatal(err)
		}
		return drainStream(t, m)
	}
	m := new(mjoin.Stream)
	for i, qi := range []int{0, 1, 0, 1, 0} {
		q := queries[qi]
		wantRows, wantStats := run(nil, q, false)
		if len(wantRows) == 0 {
			t.Fatalf("%s returns no join rows: the run probes nothing", q.ID)
		}
		gotRows, gotStats := run(m, q, true)
		if !reflect.DeepEqual(gotRows, wantRows) {
			t.Fatalf("run %d (%s) on a reset Stream: %d rows, a new Stream's %d, or their order differs", i, q.ID, len(gotRows), len(wantRows))
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("run %d (%s) on a reset Stream: stats\n%+v\na new Stream's\n%+v", i, q.ID, gotStats, wantStats)
		}
	}
}
