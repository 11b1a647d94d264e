package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestOutsideInputIsRejected: an -out other than table or csv, a negative
// -sf or -rows, an unknown flag (there is no -format) and an id nothing
// matches are usage errors: exit 2, a message naming what was refused,
// and nothing run or printed.
func TestOutsideInputIsRejected(t *testing.T) {
	for _, tc := range []struct {
		name, flag string
		args       []string
	}{
		{"unknown output format", "-out", []string{"-quick", "-fig", "4", "-out", "xml"}},
		{"negative scale factor", "-sf", []string{"-quick", "-fig", "4", "-sf", "-5"}},
		{"negative rows per object", "-rows", []string{"-quick", "-fig", "4", "-rows", "-1"}},
		{"negative rows with -trace", "-rows", []string{"-trace", "-rows", "-1"}},
		{"a deleted flag", "-format", []string{"-quick", "-fig", "4", "-format", "v2"}},
		{"no figure matched", "no figure", []string{"-quick", "-fig", "99"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errs bytes.Buffer
			code := run(tc.args, &out, &errs)
			if code != 2 || !strings.Contains(errs.String(), tc.flag) || out.Len() != 0 {
				t.Fatalf("%q exited %d, want 2 naming %s with nothing on stdout\nstdout:\n%s\nstderr:\n%s",
					tc.args, code, tc.flag, out.String(), errs.String())
			}
		})
	}
}

// TestCSVOutput: -out csv selects the CSV renderer.
func TestCSVOutput(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-fig", "table1", "-out", "csv"}, &out, &errs); code != 0 {
		t.Fatalf("exited %d\nstderr:\n%s", code, errs.String())
	}
	if !strings.HasPrefix(out.String(), "# Table 1: ") || !strings.Contains(out.String(), ",") {
		t.Fatalf("not CSV:\n%s", out.String())
	}
}
