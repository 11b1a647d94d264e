package objstore

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/segment"
	"repro/internal/skipper"
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
	if same, err := ReencodeDataset(ds, segment.FormatMem); err != nil || same != ds {
		t.Fatalf("FormatMem must hand the dataset back untouched: %p %v", same, err)
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
