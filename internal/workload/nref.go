package workload

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/skipper"
	"repro/internal/tuple"
)

// NREFConfig sizes the protein-database workload (the paper uses a 13 GB
// NREF database and a four-table join counting protein sequences matching
// a criterion).
type NREFConfig struct {
	// TotalGB is the dataset footprint in 1 GB objects (default 13).
	TotalGB       int
	RowsPerObject int
	Seed          int64
}

// NREF-like schemas: proteins, their sequences, taxonomy, and the source
// databases the entries were imported from.
var (
	SchemaProtein = tuple.NewSchema(
		col("p_id", tuple.KindInt64),
		col("p_taxid", tuple.KindInt64),
		col("p_sourceid", tuple.KindInt64),
		col("p_length", tuple.KindInt64),
	)
	SchemaSequence = tuple.NewSchema(
		col("seq_pid", tuple.KindInt64),
		col("seq_mw", tuple.KindFloat64), // molecular weight
		col("seq_crc", tuple.KindString),
	)
	SchemaTaxonomy = tuple.NewSchema(
		col("tax_id", tuple.KindInt64),
		col("tax_kingdom", tuple.KindString),
	)
	SchemaSourceDB = tuple.NewSchema(
		col("src_id", tuple.KindInt64),
		col("src_name", tuple.KindString),
	)
)

var kingdoms = []string{"Bacteria", "Archaea", "Eukaryota", "Viruses"}
var sourceDBs = []string{"PIR", "SwissProt", "TrEMBL", "GenPept", "PDB"}

// NREF generates one tenant's protein database.
func NREF(tenant int, cfg NREFConfig) *Dataset {
	if cfg.TotalGB <= 0 {
		cfg.TotalGB = 13
	}
	if cfg.RowsPerObject <= 0 {
		cfg.RowsPerObject = 24
	}
	b := newBuilder(tenant, cfg.Seed^0x11F)

	// Footprint split: sequences dominate, proteins next, dimensions
	// small (13 GB -> 7 + 4 + 1 + 1).
	seqSegs := cfg.TotalGB * 7 / 13
	protSegs := cfg.TotalGB * 4 / 13
	if seqSegs < 1 {
		seqSegs = 1
	}
	if protSegs < 1 {
		protSegs = 1
	}

	taxRows := rowArena(64, SchemaTaxonomy.Len())
	for i := range taxRows {
		taxRows[i] = append(taxRows[i], tuple.Int(int64(i)), tuple.Str(kingdoms[i%len(kingdoms)]))
	}
	b.addTable("taxonomy", SchemaTaxonomy, taxRows, 1)

	srcRows := rowArena(len(sourceDBs), SchemaSourceDB.Len())
	for i, name := range sourceDBs {
		srcRows[i] = append(srcRows[i], tuple.Int(int64(i)), tuple.Str(name))
	}
	b.addTable("sourcedb", SchemaSourceDB, srcRows, 1)

	nProt := protSegs * cfg.RowsPerObject
	protRows := rowArena(nProt, SchemaProtein.Len())
	for i := range protRows {
		protRows[i] = append(protRows[i],
			tuple.Int(int64(i)),
			tuple.Int(int64(b.rng.Intn(len(taxRows)))),
			tuple.Int(int64(b.rng.Intn(len(sourceDBs)))),
			tuple.Int(int64(50+b.rng.Intn(3000))),
		)
	}
	b.addTable("protein", SchemaProtein, protRows, protSegs)

	nSeq := seqSegs * cfg.RowsPerObject
	seqRows := rowArena(nSeq, SchemaSequence.Len())
	for i := range seqRows {
		seqRows[i] = append(seqRows[i],
			tuple.Int(int64(b.rng.Intn(nProt))),
			tuple.Float(float64(5000+b.rng.Intn(200000))),
			tuple.Str(fmt.Sprintf("%08X", b.rng.Uint32())),
		)
	}
	b.addTable("sequence", SchemaSequence, seqRows, seqSegs)
	return b.dataset()
}

// NREFJoin is the paper's genome-sequencing query: a four-table join
// counting protein sequences from bacterial organisms in a trusted source
// database with a molecular-weight cutoff.
func NREFJoin(cat *catalog.Catalog) skipper.QuerySpec {
	return mustPlan(cat, "nref-4join", `
		SELECT COUNT(*) AS matching_sequences
		FROM sequence, protein, taxonomy, sourcedb
		WHERE seq_pid = p_id
		  AND p_taxid = tax_id
		  AND p_sourceid = src_id
		  AND seq_mw >= 20000.0
		  AND tax_kingdom = 'Bacteria'
		  AND src_name IN ('SwissProt', 'PIR')`)
}
