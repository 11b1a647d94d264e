package experiments

import (
	"strings"
	"testing"
)

// TestAllFiguresRender runs every figure at Quick scale through its
// rendering path — the same table-generation code cmd/skipperbench uses.
func TestAllFiguresRender(t *testing.T) {
	for _, e := range Quick().Figures() {
		f, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out := f.String()
		if len(f.Rows) == 0 {
			t.Fatalf("%s has no rows", e.ID)
		}
		if len(f.Columns) == 0 || !strings.Contains(out, f.ID) {
			t.Fatalf("%s rendered badly:\n%s", e.ID, out)
		}
		// Every row must have as many cells as columns.
		for _, row := range f.Rows {
			if len(row) != len(f.Columns) {
				t.Fatalf("%s: row arity %d != %d columns", e.ID, len(row), len(f.Columns))
			}
		}
	}
}

func TestFigureCSV(t *testing.T) {
	f := Figure2()
	csv := f.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+len(f.Rows) {
		t.Fatalf("csv lines %d", len(lines))
	}
	if lines[0] != "config,cost (x1000 $)" {
		t.Fatalf("header %q", lines[0])
	}
	// A cell with a comma gets quoted.
	q := &Figure{Columns: []string{"a"}, Rows: [][]string{{`x,y "z"`}}}
	if got := q.CSV(); !strings.Contains(got, `"x,y ""z"""`) {
		t.Fatalf("quoting: %q", got)
	}
}

func TestVanillaQ5Reference(t *testing.T) {
	p := Quick()
	d, err := p.VanillaQ5()
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Fatalf("vanilla Q5 time %v", d)
	}
}
