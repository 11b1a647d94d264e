package experiments

import (
	"strings"
	"testing"
	"time"
)

// The experiment tests use Quick() parameters: the shapes the paper
// reports must hold at reduced scale too, since they are protocol
// properties, not absolute-throughput properties.

func TestTable1Renders(t *testing.T) {
	f := Table1()
	s := f.String()
	for _, want := range []string{"$75.0", "$13.5", "$4.5", "$0.2", "52.5%"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	pts := Figure2Data()
	if len(pts) != 7 {
		t.Fatalf("%d configs", len(pts))
	}
	byName := map[string]float64{}
	for _, pt := range pts {
		byName[pt.Config] = pt.CostK
	}
	// All-tape cheapest, All-SSD most expensive, 3-tier beats 2-tier.
	if !(byName["All-tape"] < byName["3-Tier"] && byName["3-Tier"] < byName["2-Tier"] &&
		byName["2-Tier"] < byName["All-SCSI"] && byName["All-SCSI"] < byName["All-SSD"]) {
		t.Fatalf("cost ordering broken: %v", byName)
	}
}

func TestFigure3Shape(t *testing.T) {
	pts := Figure3Data()
	if len(pts) != 6 {
		t.Fatalf("%d points", len(pts))
	}
	for _, pt := range pts {
		if pt.Ratio <= 1 {
			t.Errorf("CST at $%.2f/GB not cheaper (%v)", pt.CSDPrice, pt.Ratio)
		}
	}
}

// quick measures the grid of the figure or report id at Quick scale.
func quick(t *testing.T, id string) *Matrix {
	t.Helper()
	m, err := Quick().Measure(id)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFigure4Shape(t *testing.T) {
	m := quick(t, "4")
	if m.Len() != 5 {
		t.Fatalf("%d points", m.Len())
	}
	csd, hdd := m.Col("PostgreSQL-on-CSD"), m.Col("PostgreSQL-on-HDD (ideal)")
	// CSD time grows with clients; HDD stays flat; at 5 clients CSD is
	// far slower than HDD.
	for i := 1; i < len(csd); i++ {
		if csd[i] <= csd[i-1] {
			t.Fatalf("CSD time not increasing: %v", csd)
		}
	}
	flatness := hdd[4] / hdd[0]
	if flatness > 1.3 {
		t.Fatalf("HDD ideal not flat: %v", hdd)
	}
	if csd[4] < 2*hdd[4] {
		t.Fatalf("CSD at 5 clients (%v) should be >2x HDD (%v)", time.Duration(csd[4]), time.Duration(hdd[4]))
	}
}

func TestFigure5Shape(t *testing.T) {
	avg := quick(t, "5").Col("avg exec time (s)")
	for i := 1; i < len(avg); i++ {
		if avg[i] <= avg[i-1] {
			t.Fatalf("not monotone in S: %v", avg)
		}
	}
	// The paper reports ~6x from S=0 to S=20 at full scale; at reduced
	// scale the blow-up is still substantial.
	if ratio := avg[4] / avg[0]; ratio < 2 {
		t.Fatalf("S sensitivity ratio %.2f < 2", ratio)
	}
}

func TestFigure7Shape(t *testing.T) {
	m := quick(t, "7")
	van, skp, ideal := m.At(4, "PostgreSQL"), m.At(4, "Skipper"), m.At(4, "Ideal")
	if skp >= van {
		t.Fatalf("skipper (%v) not faster than vanilla (%v) at 5 clients", time.Duration(skp), time.Duration(van))
	}
	if van/skp < 2 {
		t.Fatalf("speedup %.2f < 2x", van/skp)
	}
	// Skipper should stay within a small multiple of ideal.
	if skp > 4*ideal {
		t.Fatalf("skipper %v vs ideal %v: too slow", time.Duration(skp), time.Duration(ideal))
	}
}

func TestFigure8Shape(t *testing.T) {
	p := Quick()
	pts, err := p.Figure8Data()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d workloads", len(pts))
	}
	for name, pt := range pts {
		if pt.Skipper >= pt.Vanilla {
			t.Errorf("%s: skipper %v >= vanilla %v", name, pt.Skipper, pt.Vanilla)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	m := quick(t, "9")
	vanSwitchPct := m.At(0, "switch") / m.At(0, "total")
	skpSwitchPct := m.At(1, "switch") / m.At(1, "total")
	// The paper: vanilla spends ~65% of its time in switches, Skipper ~2%.
	if vanSwitchPct < 0.3 {
		t.Fatalf("vanilla switch share %.2f too low", vanSwitchPct)
	}
	if skpSwitchPct > 0.15 {
		t.Fatalf("skipper switch share %.2f too high", skpSwitchPct)
	}
	// Component accounting must add up.
	for r := 0; r < m.Len(); r++ {
		sum := time.Duration(m.At(r, "processing")) + time.Duration(m.At(r, "switch")) + time.Duration(m.At(r, "transfer"))
		if total := time.Duration(m.At(r, "total")); sum > total {
			t.Fatalf("%v: components %v exceed total %v", m.Keys(r)[0], sum, total)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	p := Quick()
	pts, err := p.Table3Data()
	if err != nil {
		t.Fatal(err)
	}
	van, skp := pts[0], pts[1]
	// No switches: vanilla total = exec + fuse + network exactly.
	if van.Exec+van.Fuse+van.Network != van.Total {
		t.Fatalf("vanilla accounting: %v+%v+%v != %v", van.Exec, van.Fuse, van.Network, van.Total)
	}
	// MJoin per-object cost is ~6% above vanilla's.
	ratio := float64(skp.Exec) / float64(van.Exec)
	if ratio < 1.01 || ratio > 1.12 {
		t.Fatalf("mjoin/vanilla exec ratio %.3f, want ~1.06", ratio)
	}
	if skp.Fuse != 0 {
		t.Fatalf("skipper has FUSE cost %v", skp.Fuse)
	}
}

func TestFigure10Shape(t *testing.T) {
	m := quick(t, "10")
	van, skp := m.Col("PostgreSQL"), m.Col("Skipper")
	vanGrowth := van[3] / van[0]
	skpGrowth := skp[3] / skp[0]
	if vanGrowth < 1.5 {
		t.Fatalf("vanilla growth %.2f under 4x switch latency", vanGrowth)
	}
	if skpGrowth > 1.25 {
		t.Fatalf("skipper growth %.2f: should be insensitive", skpGrowth)
	}
}

func TestFigure11aShape(t *testing.T) {
	m := quick(t, "11a")
	if m.Len() != 4 {
		t.Fatalf("%d layouts", m.Len())
	}
	van, skp := m.Col("PostgreSQL"), m.Col("Skipper")
	// All-in-one: no switches for either engine; vanilla degrades as
	// data fans out across groups; Skipper wins 2x+ on every layout
	// with switches and is far less layout-sensitive than vanilla.
	if van[2] <= van[0] {
		t.Fatalf("vanilla not layout-sensitive: %v", van)
	}
	for r := 1; r < m.Len(); r++ {
		if ratio := van[r] / skp[r]; ratio < 2 {
			t.Fatalf("%s: skipper speedup %.2f < 2x", m.Keys(r)[0], ratio)
		}
	}
	vanSpread := van[2] / van[0]
	skpSpread := skp[2] / skp[0]
	if skpSpread >= vanSpread {
		t.Fatalf("skipper layout spread %.2f >= vanilla %.2f", skpSpread, vanSpread)
	}
}

func TestFigure11bShape(t *testing.T) {
	p := Quick()
	m, err := p.cacheGrid("Figure 11b", "", p.SF, []int{6, 8, 10, 14}).Measure()
	if err != nil {
		t.Fatal(err)
	}
	gets, avg := m.Col("GET requests/client"), m.Col("avg exec time (s)")
	// GET count decreases (weakly) as cache grows; largest cache needs
	// no reissues beyond the input footprint.
	for i := 1; i < len(gets); i++ {
		if gets[i] > gets[i-1] {
			t.Fatalf("GETs grew with cache: %v", gets)
		}
		if avg[i] > avg[i-1] {
			t.Fatalf("time grew with cache: %v", avg)
		}
	}
	if last := len(gets) - 1; gets[0] == gets[last] {
		t.Fatalf("no reissue effect visible: %v", gets)
	}
}

func TestFigure12Shape(t *testing.T) {
	m := quick(t, "12")
	byName := map[string]int{}
	for r := 0; r < m.Len(); r++ {
		byName[m.Keys(r)[0]] = r
	}
	fcfs, maxq, rank := byName["fairness"], byName["maxquery"], byName["ranking"]
	cum := func(r int) time.Duration { return time.Duration(m.At(r, "cumulative time (s)")) }
	stretch := func(r int) float64 { return m.At(r, "max stretch") }
	// Max-Queries is most efficient (lowest cumulative) but starves the
	// lone client (highest max stretch); FCFS trades efficiency for
	// fairness; ranking sits between.
	if cum(maxq) > cum(fcfs) {
		t.Fatalf("maxquery (%v) slower than fcfs (%v)", cum(maxq), cum(fcfs))
	}
	if stretch(maxq) < stretch(rank) {
		t.Fatalf("maxquery max-stretch %.2f below ranking %.2f", stretch(maxq), stretch(rank))
	}
	if cum(rank) > cum(fcfs) {
		t.Fatalf("ranking (%v) slower than fcfs (%v)", cum(rank), cum(fcfs))
	}
	if sw := m.Col("switches"); sw[fcfs] < sw[rank] {
		t.Fatalf("fcfs produced fewer switches (%d) than ranking (%d)", int(sw[fcfs]), int(sw[rank]))
	}
}

func TestQuickRunsFast(t *testing.T) {
	// Guard: the Quick experiment suite used by tests must stay cheap.
	start := time.Now()
	quick(t, "7")
	if el := time.Since(start); el > 30*time.Second {
		t.Fatalf("quick figure7 took %v", el)
	}
}

func TestFigureRendering(t *testing.T) {
	s := quick(t, "7").Figure().String()
	if !strings.Contains(s, "Figure 7") || !strings.Contains(s, "Skipper") {
		t.Fatalf("rendering:\n%s", s)
	}
	if len(strings.Split(strings.TrimSpace(s), "\n")) < 7 {
		t.Fatalf("too few lines:\n%s", s)
	}
}
