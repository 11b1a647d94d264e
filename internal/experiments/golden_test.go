package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this run instead of comparing against them")

// speedupNote matches the one note that quotes a wall-clock ratio.
var speedupNote = regexp.MustCompile(`[0-9.]+x decode speedup`)

// maskWallClock blanks what depends on the host's clock — the projection
// report's decode-time column and speedup notes, the pipeline sweep's wall
// column — so everything left is simulated or counted, and repeats to the
// byte.
func maskWallClock(f *Figure) *Figure {
	m := *f
	m.Rows = make([][]string, len(f.Rows))
	for r, row := range f.Rows {
		m.Rows[r] = append([]string(nil), row...)
		for c, col := range f.Columns {
			if strings.HasPrefix(col, "decode ms") || col == "wall (ms)" {
				m.Rows[r][c] = "*"
			}
		}
	}
	m.Notes = nil
	for _, note := range f.Notes {
		m.Notes = append(m.Notes, speedupNote.ReplaceAllString(note, "*x decode speedup"))
	}
	return &m
}

// checkGolden renders what `skipperbench -quick` prints for the
// entries, wall-clock cells masked, and compares it with the committed
// file: no change to the code underneath may move a figure byte.
func checkGolden(t *testing.T, name string, entries []Entry) {
	t.Helper()
	var sb strings.Builder
	for _, e := range entries {
		f, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		sb.WriteString(maskWallClock(f).String())
		sb.WriteByte('\n')
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with go test ./internal/experiments -run Golden -update)", err)
	}
	got := sb.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, golden has %d", path, len(gl), len(wl))
}

func TestFiguresMatchGolden(t *testing.T) { checkGolden(t, "figures.golden", Quick().Figures()) }

func TestReportsMatchGolden(t *testing.T) { checkGolden(t, "reports.golden", Quick().Reports()) }
