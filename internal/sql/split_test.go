package sql

import (
	"reflect"
	"strings"
	"testing"
)

// splitByLexer is the reference: cut at the lexer's own ';' tokens, keep
// the pieces that hold a token.
func splitByLexer(src string) (stmts []string, tail string, err error) {
	toks, err := lex(src)
	if err != nil {
		return nil, "", err
	}
	start, held := 0, 0
	for _, tok := range toks {
		switch {
		case tok.kind == tokSymbol && tok.text == ";":
			if held > 0 {
				stmts = append(stmts, strings.TrimSpace(src[start:tok.pos]))
			}
			start, held = tok.pos+1, 0
		case tok.kind != tokEOF:
			held++
		}
	}
	if held > 0 {
		tail = src[start:]
	}
	return stmts, tail, nil
}

// TestSplitStatementsFollowsTheLexer: a statement ends at exactly the ';'
// tokens the lexer sees — never at one inside a string literal or a line
// comment — and text that lexes to nothing is no statement. Text the
// lexer refuses (an unterminated literal) is an unfinished tail.
func TestSplitStatementsFollowsTheLexer(t *testing.T) {
	for _, tc := range []struct {
		src   string
		stmts []string
		tail  string
	}{
		{"SELECT 1; SELECT 2;", []string{"SELECT 1", "SELECT 2"}, ""},
		{"SELECT 'a;b' FROM t; SELECT", []string{"SELECT 'a;b' FROM t"}, " SELECT"},
		{"SELECT 'it''s; fine';x", []string{"SELECT 'it''s; fine'"}, "x"},
		{"SELECT 1 -- the end; really\n;", []string{"SELECT 1 -- the end; really"}, ""},
		{"SELECT 'open; ", nil, "SELECT 'open; "},
		{" ;\n;-- nothing; here\n", nil, ""},
		{"a - b; c--d", []string{"a - b"}, " c--d"},
	} {
		stmts, tail := SplitStatements(tc.src)
		if !reflect.DeepEqual(stmts, tc.stmts) || tail != tc.tail {
			t.Errorf("SplitStatements(%q) = %q, %q; want %q, %q", tc.src, stmts, tail, tc.stmts, tc.tail)
		}
		if refStmts, refTail, err := splitByLexer(tc.src); err == nil && (!reflect.DeepEqual(stmts, refStmts) || tail != refTail) {
			t.Errorf("SplitStatements(%q) = %q, %q; the lexer's tokens say %q, %q", tc.src, stmts, tail, refStmts, refTail)
		}
	}
}
