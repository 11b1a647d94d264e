package experiments

import (
	"fmt"

	"repro/internal/costmodel"
)

// Table 1 and Figures 2 and 3 are the tiering cost model of §2: they run
// nothing, so they are tables, not grids.

// Table1 reproduces Table 1: device pricing and tier fractions.
func Table1() *Figure {
	f := &Figure{
		ID:      "Table 1",
		Title:   "Acquisition cost ($/GB) and fraction of data per device",
		Columns: []string{"config", "SSD (P)", "15k-HDD (P)", "7.2k-HDD (C)", "Tape (A)"},
	}
	cost, col := []string{"cost/GB"}, map[string]int{}
	for i, d := range []costmodel.Device{costmodel.SSD, costmodel.SCSI15K, costmodel.SATA72K, costmodel.Tape} {
		cost, col[d.Name] = append(cost, fmt.Sprintf("$%.1f", d.DollarsPerGB)), i+1
	}
	f.Rows = append(f.Rows, cost)
	for _, mix := range []costmodel.TierMix{costmodel.TwoTier(), costmodel.ThreeTier(), costmodel.FourTier()} {
		row := []string{mix.Name, "-", "-", "-", "-"}
		for _, s := range mix.Shares {
			row[col[s.Device.Name]] = fmt.Sprintf("%.1f%%", s.Fraction*100)
		}
		f.Rows = append(f.Rows, row)
	}
	return f
}

// Figure2Point is one bar of Figure 2.
type Figure2Point struct {
	Config string
	CostK  float64 // thousands of dollars for a 100 TB database
}

// Figure2Data computes the seven bars.
func Figure2Data() []Figure2Point {
	var out []Figure2Point
	for _, cfg := range costmodel.Figure2Configs() {
		out = append(out, Figure2Point{Config: cfg.Name, CostK: cfg.Cost(100) / 1000})
	}
	return out
}

// Figure2 renders Figure 2: cost benefits of storage tiering.
func Figure2() *Figure {
	f := &Figure{
		ID:      "Figure 2",
		Title:   "Cost of a 100 TB database per tiering configuration (x1000 $)",
		Columns: []string{"config", "cost (x1000 $)"},
	}
	for _, pt := range Figure2Data() {
		f.Rows = append(f.Rows, []string{pt.Config, fmt.Sprintf("%.2f", pt.CostK)})
	}
	return f
}

// Figure3Point is one bar pair of Figure 3.
type Figure3Point struct {
	Base      string
	CSDPrice  float64
	CSDCostK  float64
	TradCostK float64
	Ratio     float64
}

// Figure3Data computes CST-vs-traditional costs at the three CSD price
// points for the 3-tier and 4-tier configurations.
func Figure3Data() []Figure3Point {
	var out []Figure3Point
	for _, base := range []costmodel.TierMix{costmodel.ThreeTier(), costmodel.FourTier()} {
		for _, price := range []float64{1.0, 0.2, 0.1} {
			cst := costmodel.WithCST(base, price)
			out = append(out, Figure3Point{
				Base:      base.Name,
				CSDPrice:  price,
				CSDCostK:  cst.Cost(100) / 1000,
				TradCostK: base.Cost(100) / 1000,
				Ratio:     costmodel.SavingsRatio(base, cst),
			})
		}
	}
	return out
}

// Figure3 renders Figure 3: savings of the CSD cold storage tier.
func Figure3() *Figure {
	f := &Figure{
		ID:      "Figure 3",
		Title:   "CSD-based cold storage tier vs traditional tiering (100 TB, x1000 $)",
		Columns: []string{"base", "CSD $/GB", "CSD config", "traditional", "savings"},
	}
	for _, pt := range Figure3Data() {
		f.Rows = append(f.Rows, []string{
			pt.Base,
			fmt.Sprintf("$%.2f", pt.CSDPrice),
			fmt.Sprintf("%.2f", pt.CSDCostK),
			fmt.Sprintf("%.2f", pt.TradCostK),
			fmt.Sprintf("%.2fx", pt.Ratio),
		})
	}
	return f
}
