package objstore

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/stats"
	"repro/internal/workload"
)

var wireFormats = []segment.Format{segment.FormatV2}

func TestDatasetRoundTrip(t *testing.T) {
	ds := workload.TPCH(3, workload.TPCHConfig{SF: 4, RowsPerObject: 12, Seed: 9})
	for _, f := range wireFormats {
		back, err := ReencodeDataset(ds, f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.Catalog.TableNames(), ds.Catalog.TableNames()) {
			t.Fatalf("%v: tables %v", f, back.Catalog.TableNames())
		}
		if len(back.Store) != len(ds.Store) {
			t.Fatalf("%v: segments %d != %d", f, len(back.Store), len(ds.Store))
		}
		for id, sg := range ds.Store {
			got := back.Store[id]
			if got == nil {
				t.Fatalf("%v: missing %v", f, id)
			}
			if !got.Lazy() {
				t.Fatalf("%v: segment %v came back materialized", f, id)
			}
			rows, err := got.Materialize(ds.Catalog.MustTable(id.Table).Schema)
			if err != nil {
				t.Fatal(err)
			}
			if got.NominalBytes != sg.NominalBytes || len(rows) != len(sg.Rows) {
				t.Fatalf("%v: segment %v mismatch", f, id)
			}
			for i := range sg.Rows {
				if !reflect.DeepEqual(sg.Rows[i], rows[i]) {
					t.Fatalf("%v: row %d of %v differs", f, i, id)
				}
			}
		}
	}
	// v2 is the only format a device serves; any other is refused.
	for _, f := range []segment.Format{0, 1, 3} {
		if back, err := ReencodeDataset(ds, f); err == nil || !strings.Contains(err.Error(), "cannot encode format") {
			t.Fatalf("%v: re-encoded (%p) with error %v, want a refusal", f, back, err)
		}
	}
}

// TestReencodeEncodedDatasetRefused: a dataset that was already encoded
// holds lazily decoded segments, which cannot be encoded again; the
// re-encoding fails instead of returning tables of zero rows.
func TestReencodeEncodedDatasetRefused(t *testing.T) {
	ds := workload.TPCH(0, workload.TPCHConfig{SF: 4, RowsPerObject: 12, Seed: 3})
	for _, f := range wireFormats {
		enc, err := ReencodeDataset(ds, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, to := range wireFormats {
			if _, err := ReencodeDataset(enc, to); err == nil || !strings.Contains(err.Error(), "lazily decoded") {
				t.Fatalf("%v dataset re-encoded to %v: error %v, want a refusal", f, to, err)
			}
		}
	}
}

// TestClusterOverObjstore runs a full query through data that was encoded
// into objects and decoded back — the complete storage path.
func TestClusterOverObjstore(t *testing.T) {
	ds := workload.TPCH(0, workload.TPCHConfig{SF: 4, RowsPerObject: 12, Seed: 2})
	want, err := workload.Evaluate(ds, workload.Q12(ds.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range wireFormats {
		enc, err := ReencodeDataset(ds, f)
		if err != nil {
			t.Fatal(err)
		}
		client := &skipper.Client{
			Tenant: 0, Mode: skipper.ModeSkipper, Catalog: enc.Catalog,
			Queries: []skipper.QuerySpec{workload.Q12(enc.Catalog)}, CacheObjects: 6,
		}
		res, err := (&skipper.Cluster{Clients: []*skipper.Client{client}, Store: enc.Store}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Clients[0].Rows != int64(len(want)) {
			t.Fatalf("%v: rows %d != %d", f, res.Clients[0].Rows, len(want))
		}
	}
}

// TestRefusesDamagedAndForeignObjects: an object whose bytes changed after
// encoding is refused as corrupt, and an intact object filed under another
// object's id is refused by name.
func TestRefusesDamagedAndForeignObjects(t *testing.T) {
	ds := workload.TPCH(1, workload.TPCHConfig{SF: 4, RowsPerObject: 12, Seed: 5})
	tm := ds.Catalog.MustTable("lineitem")
	id, other := tm.Objects[0], tm.Objects[1]
	misfiled := &workload.Dataset{Catalog: ds.Catalog, Store: map[segment.ObjectID]*segment.Segment{}}
	for k, sg := range ds.Store {
		misfiled.Store[k] = sg
	}
	misfiled.Store[id] = ds.Store[other]
	for _, f := range wireFormats {
		data, err := ds.Store[id].EncodeFormat(tm.Schema, f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := readObject(tm.Schema, id, data); err != nil {
			t.Fatalf("%v: intact object refused: %v", f, err)
		}
		data[len(data)/2] ^= 0x40
		_, err = readObject(tm.Schema, id, data)
		if !errors.Is(err, segment.ErrCorrupt) || !strings.Contains(err.Error(), id.String()) {
			t.Fatalf("%v: flipped payload byte: got %v, want ErrCorrupt naming %v", f, err, id)
		}
		_, err = ReencodeDataset(misfiled, f)
		if err == nil || !strings.Contains(err.Error(), id.String()) || !strings.Contains(err.Error(), other.String()) {
			t.Fatalf("%v: foreign object: got %v, want an error naming %v and %v", f, err, id, other)
		}
	}
}

// TestReencodeFanOutMatchesSerial: at GOMAXPROCS 1 and 2 (and an odd 5),
// a re-encoded TPC-H dataset holds, object for object, the encoded bytes a
// serial encode-and-decode writes, and per segment the zone maps and
// Bloom words a serial collection over those objects computes.
func TestReencodeFanOutMatchesSerial(t *testing.T) {
	ds := workload.TPCH(2, workload.TPCHConfig{SF: 12, RowsPerObject: 300, Seed: 40})
	want := map[segment.ObjectID]*segment.Segment{}
	wantStats := map[string][]stats.SegmentStats{}
	for _, name := range ds.Catalog.TableNames() {
		tm := ds.Catalog.MustTable(name)
		for _, id := range tm.Objects {
			data, err := ds.Store[id].EncodeFormat(tm.Schema, segment.FormatV2)
			if err != nil {
				t.Fatal(err)
			}
			if want[id], err = readObject(tm.Schema, id, data); err != nil {
				t.Fatal(err)
			}
			st := stats.Collect(name, tm.Schema, []*segment.Segment{want[id]}, stats.DefaultOptions())
			wantStats[name] = append(wantStats[name], st.Segments...)
		}
	}
	for _, procs := range []int{1, 2, 5} {
		prev := runtime.GOMAXPROCS(procs)
		enc, err := ReencodeDataset(ds, segment.FormatV2)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(enc.Catalog.TableNames(), ds.Catalog.TableNames()) || len(enc.Store) != len(want) {
			t.Fatalf("GOMAXPROCS %d: tables %v, %d objects", procs, enc.Catalog.TableNames(), len(enc.Store))
		}
		for id, sg := range want {
			if !reflect.DeepEqual(enc.Store[id], sg) {
				t.Fatalf("GOMAXPROCS %d: object %v differs from its serial encoding", procs, id)
			}
		}
		for name, ss := range wantStats {
			tm := enc.Catalog.MustTable(name)
			if !reflect.DeepEqual(tm.Stats.Segments, ss) || !reflect.DeepEqual(tm.Objects, ds.Catalog.MustTable(name).Objects) {
				t.Fatalf("GOMAXPROCS %d: %s statistics or object order differ from the serial ones", procs, name)
			}
		}
	}
}

// TestReencodeReportsLowestFailure: with one refused and one missing
// object, the fan-out returns the error of whichever comes first in table
// and object order — what a serial pass stops at — and leaves no worker
// behind.
func TestReencodeReportsLowestFailure(t *testing.T) {
	ds := workload.TPCH(0, workload.TPCHConfig{SF: 12, RowsPerObject: 40, Seed: 6})
	enc, err := ReencodeDataset(ds, segment.FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	// The generator registers orders before lineitem.
	line, ord := ds.Catalog.MustTable("lineitem").Objects, ds.Catalog.MustTable("orders").Objects
	for _, c := range []struct {
		refused, missing segment.ObjectID
		want             string
	}{
		{line[3], line[7], "lazily decoded"},
		{line[7], line[3], "missing segment " + line[3].String()},
		{line[0], ord[1], "missing segment " + ord[1].String()},
	} {
		broken := &workload.Dataset{Catalog: ds.Catalog, Store: map[segment.ObjectID]*segment.Segment{}}
		for id, sg := range ds.Store {
			broken.Store[id] = sg
		}
		broken.Store[c.refused] = enc.Store[c.refused] // already encoded: refused
		delete(broken.Store, c.missing)
		for _, procs := range []int{1, 2, 5} {
			prev := runtime.GOMAXPROCS(procs)
			baseline := runtime.NumGoroutine()
			for round := 0; round < 10; round++ {
				if _, err := ReencodeDataset(broken, segment.FormatV2); err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("GOMAXPROCS %d, %v refused and %v missing: error %v, want %q", procs, c.refused, c.missing, err, c.want)
				}
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("GOMAXPROCS %d: %d goroutines after the failures, %d before", procs, runtime.NumGoroutine(), baseline)
				}
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}
