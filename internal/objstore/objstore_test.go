package objstore

import (
	"reflect"
	"testing"

	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/workload"
)

func TestPutGetDelete(t *testing.T) {
	s := New()
	m := s.Put("c1", "k1", []byte("hello"))
	if m.Size != 5 || m.Key != "k1" {
		t.Fatalf("meta %+v", m)
	}
	data, m2, err := s.Get("c1", "k1")
	if err != nil || string(data) != "hello" || m2.ETag != m.ETag {
		t.Fatalf("get: %q %+v %v", data, m2, err)
	}
	if err := s.Delete("c1", "k1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("c1", "k1"); err == nil {
		t.Fatal("deleted object retrievable")
	}
	if err := s.Delete("c1", "k1"); err == nil {
		t.Fatal("double delete accepted")
	}
	if err := s.Delete("nope", "k"); err == nil {
		t.Fatal("delete from missing container accepted")
	}
}

func TestGetErrors(t *testing.T) {
	s := New()
	if _, _, err := s.Get("missing", "k"); err == nil {
		t.Fatal("missing container accepted")
	}
	s.Put("c", "a", []byte("x"))
	if _, _, err := s.Get("c", "missing"); err == nil {
		t.Fatal("missing key accepted")
	}
}

func TestPutIsolation(t *testing.T) {
	s := New()
	buf := []byte("mutable")
	s.Put("c", "k", buf)
	buf[0] = 'X'
	data, _, err := s.Get("c", "k")
	if err != nil || string(data) != "mutable" {
		t.Fatalf("store aliased caller buffer: %q", data)
	}
}

func TestListAndContainers(t *testing.T) {
	s := New()
	s.Put("b", "2", []byte("y"))
	s.Put("b", "1", []byte("x"))
	s.Put("a", "1", []byte("z"))
	if got := s.Containers(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("containers %v", got)
	}
	metas, err := s.List("b")
	if err != nil || len(metas) != 2 || metas[0].Key != "1" {
		t.Fatalf("list %v %v", metas, err)
	}
	if _, err := s.List("zzz"); err == nil {
		t.Fatal("list of missing container accepted")
	}
	if s.TotalBytes() != 3 {
		t.Fatalf("total %d", s.TotalBytes())
	}
}

func TestOverwriteReplaces(t *testing.T) {
	s := New()
	s.Put("c", "k", []byte("one"))
	m := s.Put("c", "k", []byte("twoo"))
	data, m2, err := s.Get("c", "k")
	if err != nil || string(data) != "twoo" || m2.ETag != m.ETag {
		t.Fatalf("overwrite: %q", data)
	}
	if s.TotalBytes() != 4 {
		t.Fatalf("total %d", s.TotalBytes())
	}
}

func TestDatasetRoundTrip(t *testing.T) {
	ds := workload.TPCH(3, workload.TPCHConfig{SF: 4, RowsPerObject: 12, Seed: 9})
	s := New()
	if err := LoadDatasetFormat(s, ds, segment.FormatV1); err != nil {
		t.Fatal(err)
	}
	if len(s.Containers()) != len(ds.Catalog.TableNames()) {
		t.Fatalf("containers %v", s.Containers())
	}
	back, err := BuildSegmentStore(s, ds.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ds.Store) {
		t.Fatalf("segments %d != %d", len(back), len(ds.Store))
	}
	for id, sg := range ds.Store {
		got := back[id]
		if got == nil {
			t.Fatalf("missing %v", id)
		}
		if got.NominalBytes != sg.NominalBytes || len(got.Rows) != len(sg.Rows) {
			t.Fatalf("segment %v mismatch", id)
		}
		for i := range sg.Rows {
			if !reflect.DeepEqual(sg.Rows[i], got.Rows[i]) {
				t.Fatalf("row %d of %v differs", i, id)
			}
		}
	}
}

// TestClusterOverObjstore runs a full query through data that was loaded
// into the object store and decoded back — the complete storage path.
func TestClusterOverObjstore(t *testing.T) {
	ds := workload.TPCH(0, workload.TPCHConfig{SF: 4, RowsPerObject: 12, Seed: 2})
	s := New()
	if err := LoadDatasetFormat(s, ds, segment.FormatV1); err != nil {
		t.Fatal(err)
	}
	store, err := BuildSegmentStore(s, ds.Catalog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.Evaluate(ds, workload.Q12(ds.Catalog))
	if err != nil {
		t.Fatal(err)
	}
	client := &skipper.Client{
		Tenant: 0, Mode: skipper.ModeSkipper, Catalog: ds.Catalog,
		Queries: []skipper.QuerySpec{workload.Q12(ds.Catalog)}, CacheObjects: 6,
	}
	res, err := (&skipper.Cluster{Clients: []*skipper.Client{client}, Store: store}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients[0].Rows != int64(len(want)) {
		t.Fatalf("rows %d != %d", res.Clients[0].Rows, len(want))
	}
}

func TestObjectNaming(t *testing.T) {
	id := segment.ObjectID{Tenant: 2, Table: "orders", Index: 7}
	if ContainerFor(id) != "t2.orders" {
		t.Fatal(ContainerFor(id))
	}
	if KeyFor(id) != "000007" {
		t.Fatal(KeyFor(id))
	}
}
