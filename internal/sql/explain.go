package sql

import "strings"

// StripExplain recognizes a leading EXPLAIN [ANALYZE] prefix and
// returns the statement behind it. It is the single definition of the
// prefix grammar shared by the interactive shell and the server
// protocol, so "EXPLAIN ANALYZE SELECT ..." means the same thing on
// every surface: ok reports whether an EXPLAIN prefix was present,
// analyze whether the ANALYZE modifier followed it (execute the plan
// and annotate each operator with measured rows/batches/bytes/time).
func StripExplain(stmtText string) (rest string, analyze, ok bool) {
	rest, ok = StripWord(stmtText, "EXPLAIN")
	if !ok {
		return "", false, false
	}
	if after, isAnalyze := StripWord(rest, "ANALYZE"); isAnalyze {
		return after, true, true
	}
	return rest, false, true
}

// StripWord strips one leading keyword (case-insensitive, followed by
// whitespace) and returns the trimmed remainder — the prefix grammar of
// EXPLAIN here and of the server's admin verbs.
func StripWord(s, word string) (string, bool) {
	trimmed := strings.TrimSpace(s)
	n := len(word)
	if len(trimmed) < n+1 || !strings.EqualFold(trimmed[:n], word) {
		return "", false
	}
	switch trimmed[n] {
	case ' ', '\t', '\n', '\r':
		return strings.TrimSpace(trimmed[n+1:]), true
	}
	return "", false
}
