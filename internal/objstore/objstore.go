// Package objstore implements the Swift-like object interface in front of
// the cold storage device: tenants store each relation in a container and
// each 1 GB segment as an object within it (§5.1 "each relation has a
// corresponding Swift container, and each segment is stored as an object
// within the container"). Objects are opaque byte blobs with FNV-64
// checksums; the dataset loader encodes segments through the binary row
// codec and the segment-store builder decodes them back, so the on-wire
// format is exercised on every load.
package objstore

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/catalog"
	"repro/internal/segment"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// Meta describes one stored object.
type Meta struct {
	// Key is the object's name within its container.
	Key string
	// Size is the stored byte count.
	Size int64
	// ETag is the FNV-64a checksum of the contents, verified on Get.
	ETag uint64
}

// container holds one relation's objects.
type container struct {
	name    string
	objects map[string][]byte
	metas   map[string]Meta
}

// Store is an in-memory multi-container object store.
type Store struct {
	containers map[string]*container
}

// New returns an empty store.
func New() *Store {
	return &Store{containers: make(map[string]*container)}
}

// ContainerFor names the container holding an object id's relation.
func ContainerFor(id segment.ObjectID) string {
	return fmt.Sprintf("t%d.%s", id.Tenant, id.Table)
}

// KeyFor names the object within its container.
func KeyFor(id segment.ObjectID) string {
	return fmt.Sprintf("%06d", id.Index)
}

func etag(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// Put stores data, creating the container if needed, and returns the
// object's metadata.
func (s *Store) Put(cont, key string, data []byte) Meta {
	c, ok := s.containers[cont]
	if !ok {
		c = &container{name: cont, objects: make(map[string][]byte), metas: make(map[string]Meta)}
		s.containers[cont] = c
	}
	cp := append([]byte(nil), data...)
	m := Meta{Key: key, Size: int64(len(cp)), ETag: etag(cp)}
	c.objects[key] = cp
	c.metas[key] = m
	return m
}

// Get retrieves an object, verifying its checksum.
func (s *Store) Get(cont, key string) ([]byte, Meta, error) {
	c, ok := s.containers[cont]
	if !ok {
		return nil, Meta{}, fmt.Errorf("objstore: container %q not found", cont)
	}
	data, ok := c.objects[key]
	if !ok {
		return nil, Meta{}, fmt.Errorf("objstore: object %s/%s not found", cont, key)
	}
	m := c.metas[key]
	if etag(data) != m.ETag {
		return nil, Meta{}, fmt.Errorf("objstore: object %s/%s failed checksum verification", cont, key)
	}
	return data, m, nil
}

// Delete removes an object.
func (s *Store) Delete(cont, key string) error {
	c, ok := s.containers[cont]
	if !ok {
		return fmt.Errorf("objstore: container %q not found", cont)
	}
	if _, ok := c.objects[key]; !ok {
		return fmt.Errorf("objstore: object %s/%s not found", cont, key)
	}
	delete(c.objects, key)
	delete(c.metas, key)
	return nil
}

// Containers lists container names, sorted.
func (s *Store) Containers() []string {
	out := make([]string, 0, len(s.containers))
	for name := range s.containers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// List returns the metadata of a container's objects, sorted by key.
func (s *Store) List(cont string) ([]Meta, error) {
	c, ok := s.containers[cont]
	if !ok {
		return nil, fmt.Errorf("objstore: container %q not found", cont)
	}
	out := make([]Meta, 0, len(c.metas))
	for _, m := range c.metas {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// TotalBytes sums stored object sizes.
func (s *Store) TotalBytes() int64 {
	var n int64
	for _, c := range s.containers {
		for _, m := range c.metas {
			n += m.Size
		}
	}
	return n
}

// LoadDatasetFormat encodes every segment of a tenant's dataset through
// the binary codec in the given wire format and PUTs it — the "data
// waterfall" into the cold storage tier. FormatV1 writes the row-major
// layout, FormatV2 the columnar layout with a column directory. Either
// format decodes back to identical rows; only access granularity and size
// differ.
func LoadDatasetFormat(s *Store, ds *workload.Dataset, f segment.Format) error {
	for _, name := range ds.Catalog.TableNames() {
		tm := ds.Catalog.MustTable(name)
		for _, id := range tm.Objects {
			sg, ok := ds.Store[id]
			if !ok {
				return fmt.Errorf("objstore: dataset missing segment %v", id)
			}
			data, err := sg.EncodeFormat(tm.Schema, f)
			if err != nil {
				return err
			}
			s.Put(ContainerFor(id), KeyFor(id), data)
		}
	}
	return nil
}

// BuildSegmentStore decodes every object of the given catalogs back into
// fully materialized segments, producing the map the CSD emulator serves
// from. Decoding verifies the wire format and checksums end to end.
func BuildSegmentStore(s *Store, catalogs ...*catalog.Catalog) (map[segment.ObjectID]*segment.Segment, error) {
	return buildSegmentStore(s, segment.Decode, catalogs)
}

// BuildSegmentStoreLazy is BuildSegmentStore without eager row
// materialization: the returned segments keep their encoded payloads and
// decode columns on demand, so scans pay (and measure) decode work per
// access, and v2 readers decode only the column blocks a query projects.
func BuildSegmentStoreLazy(s *Store, catalogs ...*catalog.Catalog) (map[segment.ObjectID]*segment.Segment, error) {
	return buildSegmentStore(s, segment.DecodeLazy, catalogs)
}

func buildSegmentStore(s *Store, decode func(*tuple.Schema, []byte) (*segment.Segment, error), catalogs []*catalog.Catalog) (map[segment.ObjectID]*segment.Segment, error) {
	out := make(map[segment.ObjectID]*segment.Segment)
	for _, cat := range catalogs {
		for _, name := range cat.TableNames() {
			tm := cat.MustTable(name)
			for _, id := range tm.Objects {
				data, _, err := s.Get(ContainerFor(id), KeyFor(id))
				if err != nil {
					return nil, err
				}
				sg, err := decode(tm.Schema, data)
				if err != nil {
					return nil, fmt.Errorf("objstore: decode %v: %w", id, err)
				}
				if sg.ID != id {
					return nil, fmt.Errorf("objstore: object %v decoded with id %v", id, sg.ID)
				}
				out[id] = sg
			}
		}
	}
	return out, nil
}

// ReencodeDataset pushes a generated dataset through the object store in
// the given wire format and returns a dataset whose store serves lazily
// decoded segments and whose catalog was rebuilt from them — so its
// statistics come from the v2 column directories when f is FormatV2, and
// every scan against the returned store performs real, per-access decode
// work. FormatMem returns the dataset unchanged (in-memory segments,
// zero decode cost — the historical behaviour).
func ReencodeDataset(ds *workload.Dataset, f segment.Format) (*workload.Dataset, error) {
	if f == segment.FormatMem {
		return ds, nil
	}
	s := New()
	if err := LoadDatasetFormat(s, ds, f); err != nil {
		return nil, err
	}
	store, err := BuildSegmentStoreLazy(s, ds.Catalog)
	if err != nil {
		return nil, err
	}
	cat := catalog.New(ds.Catalog.Tenant)
	for _, name := range ds.Catalog.TableNames() {
		tm := ds.Catalog.MustTable(name)
		segs := make([]*segment.Segment, 0, len(tm.Objects))
		for _, id := range tm.Objects {
			segs = append(segs, store[id])
		}
		if _, err := cat.AddTable(name, tm.Schema, segs); err != nil {
			return nil, err
		}
	}
	return &workload.Dataset{Catalog: cat, Store: store}, nil
}
