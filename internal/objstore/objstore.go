// Package objstore is the write side of the cold storage tier: it turns a
// generated dataset into the objects the device serves (§5.1 "each segment
// is stored as an object"). Every segment goes through the wire codec and
// back, so the on-wire format and its CRC32C trailer are exercised on
// every load.
package objstore

import (
	"fmt"
	"slices"

	"repro/internal/catalog"
	"repro/internal/par"
	"repro/internal/segment"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// ReencodeDataset encodes every segment of a generated dataset in the
// given wire format and returns a dataset whose store serves the lazily
// decoded objects and whose catalog was rebuilt from them — so its
// statistics come from the v2 column directories, and every scan against
// the returned store performs real, per-access decode work. A format
// other than segment.FormatV2 is refused by the encoder. One par.For
// encodes and reads back every object; tables then enter the catalog in
// order, so a failure is the serial pass's: the first failing object, or
// failing statistics of a table before it.
func ReencodeDataset(ds *workload.Dataset, f segment.Format) (*workload.Dataset, error) {
	names := ds.Catalog.TableNames()
	var ids []segment.ObjectID
	for _, name := range names {
		ids = append(ids, ds.Catalog.MustTable(name).Objects...)
	}
	encs := make([]*segment.Segment, len(ids))
	failed := par.For(len(ids), func(_, i int) error {
		sg, ok := ds.Store[ids[i]]
		if !ok {
			return fmt.Errorf("objstore: dataset missing segment %v", ids[i])
		}
		schema := ds.Catalog.MustTable(ids[i].Table).Schema
		data, err := sg.EncodeFormat(schema, f)
		if err != nil {
			return err
		}
		encs[i], err = readObject(schema, ids[i], data)
		return err
	})
	cat := catalog.New(ds.Catalog.Tenant)
	store := make(map[segment.ObjectID]*segment.Segment, len(ids))
	for _, name := range names {
		tm := ds.Catalog.MustTable(name)
		segs := encs[:len(tm.Objects):len(tm.Objects)]
		encs = encs[len(tm.Objects):]
		if slices.Contains(segs, nil) { // the lowest failing object is here
			return nil, failed
		}
		for _, sg := range segs {
			store[sg.ID] = sg
		}
		if _, err := cat.AddTable(name, tm.Schema, segs); err != nil {
			return nil, err
		}
	}
	return &workload.Dataset{Catalog: cat, Store: store}, nil
}

// readObject parses the stored bytes of the object the catalog knows as id.
// DecodeLazy verifies the CRC32C trailer and the header; the id check
// refuses an intact object that belongs somewhere else.
func readObject(schema *tuple.Schema, id segment.ObjectID, data []byte) (*segment.Segment, error) {
	sg, err := segment.DecodeLazy(schema, data)
	if err != nil {
		return nil, fmt.Errorf("objstore: decode %v: %w", id, err)
	}
	if sg.ID != id {
		return nil, fmt.Errorf("objstore: object %v decoded with id %v", id, sg.ID)
	}
	return sg, nil
}
