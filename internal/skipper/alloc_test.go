package skipper_test

import (
	"testing"

	"repro/internal/objstore"
	"repro/internal/segment"
	"repro/internal/skipper"
	"repro/internal/workload"
)

// TestVanillaRunAllocations: one vanilla run of Q12 and Q5 over a v2 store
// allocates for the rows it moves, not for the scaffolding around them: the
// join shapes and shaping stages are compiled with the plan, a plan's scans
// and joins are one allocation each and its shaping operators one more,
// batch shells, decode buffers and dictionary arrays come from the
// working-memory pool, a dictionary block is one string, and the device
// recycles its GET requests. The bound is the measured count, 438 in a
// test binary (whose plan check compiles each query's plan again on every
// run), with 5 % of margin; an allocation per segment, batch, GET or
// operator more exceeds it.
func TestVanillaRunAllocations(t *testing.T) {
	const bound = 460
	gen := workload.TPCH(0, workload.TPCHConfig{SF: 8, RowsPerObject: 2000, Seed: 1})
	enc, err := objstore.ReencodeDataset(gen, segment.FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	store := map[segment.ObjectID]*segment.Segment{}
	enc.MergeInto(store)
	specs := []skipper.QuerySpec{workload.Q12(enc.Catalog), workload.Q5(enc.Catalog)}
	var rows int64
	allocs := testing.AllocsPerRun(10, func() {
		client := &skipper.Client{Mode: skipper.ModeVanilla, Catalog: enc.Catalog, Queries: specs}
		res, err := (&skipper.Cluster{Clients: []*skipper.Client{client}, Store: store}).Run()
		if err != nil {
			t.Fatal(err)
		}
		rows = res.Clients[0].Rows
	})
	t.Logf("%.0f allocations per run returning %d rows", allocs, rows)
	if rows == 0 {
		t.Fatal("the queries return no rows: the run moves nothing")
	}
	if allocs > bound {
		t.Fatalf("%.0f allocations per run, bound %d", allocs, bound)
	}
}
