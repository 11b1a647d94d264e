package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/objstore"
	"repro/internal/segment"
	"repro/internal/workload"
)

// ingestState re-encodes one pre-generated tenant dataset per op.
type ingestState struct {
	gen *workload.Dataset
	// want is the oracle: per table, the rows a correct re-encoding
	// holds and reports; wantBytes is the encoded size of the first
	// (fully checked) re-encoding, which every later op must repeat.
	wantRows  []string
	wantBytes int64
	rows      int64
}

func setupIngest(cfg *config) (*instance, error) {
	st := &ingestState{gen: workload.TPCH(0, workload.TPCHConfig{
		SF: cfg.scale.sf, RowsPerObject: cfg.scale.rowsPerObject, Seed: cfg.seed,
	})}
	inst := &instance{
		conns:        1,
		warmupRounds: cfg.scale.ingestWarmup,
		round:        func(_ int, rec *recorder) { st.op(rec) },
		close:        func() {},
		gen:          st.gen,
	}
	inst.oracle = func() (err error) {
		inst.enc, err = st.oracle()
		return err
	}
	return inst, nil
}

// summary renders what the cheap per-op check compares: each table's
// row count as the rebuilt catalog states it.
func ingestSummary(ds *workload.Dataset) []string {
	var out []string
	for _, name := range ds.Catalog.TableNames() {
		tm := ds.Catalog.MustTable(name)
		out = append(out, fmt.Sprintf("%s objects=%d rows=%d stats=%d", name, len(tm.Objects), tm.RowCount, tm.Stats.RowCount()))
	}
	return out
}

func encodedBytes(ds *workload.Dataset) int64 {
	var n int64
	for _, sg := range ds.Store {
		n += sg.EncodedSize()
	}
	return n
}

// oracle re-encodes once and compares every decoded row with the
// generated one, byte for byte; ops then only repeat the cheap summary.
func (st *ingestState) oracle() (*workload.Dataset, error) {
	enc, err := objstore.ReencodeDataset(st.gen, segment.FormatV2)
	if err != nil {
		return nil, err
	}
	for _, name := range st.gen.Catalog.TableNames() {
		tm := st.gen.Catalog.MustTable(name)
		for _, id := range tm.Objects {
			got, err := enc.Store[id].Materialize(tm.Schema)
			if err != nil {
				return nil, fmt.Errorf("oracle: %v: %w", id, err)
			}
			if !slices.Equal(renderRows(got), renderRows(st.gen.Store[id].Rows)) {
				return nil, fmt.Errorf("oracle: %v decodes to different rows than were generated", id)
			}
		}
		st.rows += tm.RowCount
	}
	if st.rows == 0 {
		return nil, fmt.Errorf("oracle: generated dataset is empty")
	}
	st.wantRows = ingestSummary(st.gen)
	st.wantBytes = encodedBytes(enc)
	return enc, nil
}

// op is one objstore.ReencodeDataset: encode, store, lazy-decode,
// rebuild catalog statistics and Blooms.
func (st *ingestState) op(rec *recorder) {
	root := rec.spans.beginOp()
	call := rec.spans.begin("objstore.ReencodeDataset", "objstore", root)
	start := time.Now()
	enc, err := objstore.ReencodeDataset(st.gen, segment.FormatV2)
	wall := time.Since(start)
	rec.spans.end(call)

	verify := rec.spans.begin("verify", "bench", root)
	var got []string
	var size int64
	if err == nil {
		got = ingestSummary(enc)
		if size = encodedBytes(enc); size != st.wantBytes {
			err = fmt.Errorf("re-encoding is %d bytes, the checked one was %d", size, st.wantBytes)
		}
	}
	if rec.digest == "" && err == nil {
		rec.digest = digestRows(got)
	}
	rec.done(wall, err, got, st.wantRows)
	rec.spans.end(verify)
	rec.spans.endOp(root)
	if rec.layers && err == nil {
		rec.add("stored_bytes", size)
		rec.add("stored_rows", st.rows)
	}
}
