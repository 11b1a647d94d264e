// Package sql implements a small SQL front-end for the engines: a lexer,
// a recursive-descent parser for single SELECT statements, and a planner
// that maps the statement onto an mjoin.Query (join chain + local
// filters) plus a shaping stage (post-join filters, projection,
// aggregation, ORDER BY, LIMIT). The same plan drives both the pull-based
// baseline engine and Skipper's MJoin, mirroring how the paper's system
// runs unmodified SQL on PostgreSQL.
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind enumerates lexer token classes.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // ( ) , . * = <> < <= > >= + - /
)

// token is one lexeme.
type token struct {
	kind tokenKind
	text string // keywords upper-cased; idents lower-cased
	pos  int    // byte offset, for error messages
}

var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "AND": true, "OR": true, "NOT": true,
	"AS": true, "ASC": true, "DESC": true, "BETWEEN": true, "IN": true,
	"LIKE": true, "CASE": true, "WHEN": true, "THEN": true, "ELSE": true,
	"END": true, "JOIN": true, "ON": true, "INNER": true, "COUNT": true,
	"SUM": true, "AVG": true, "MIN": true, "MAX": true, "TRUE": true,
	"FALSE": true, "DATE": true, "HAVING": true,
}

// lex splits the input into tokens.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			word := input[start:i]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{tokKeyword, up, start})
			} else {
				toks = append(toks, token{tokIdent, strings.ToLower(word), start})
			}
		case unicode.IsDigit(rune(c)):
			start := i
			seenDot := false
			for i < n && (unicode.IsDigit(rune(input[i])) || (input[i] == '.' && !seenDot)) {
				if input[i] == '.' {
					// "1." followed by non-digit ends the number.
					if i+1 >= n || !unicode.IsDigit(rune(input[i+1])) {
						break
					}
					seenDot = true
				}
				i++
			}
			toks = append(toks, token{tokNumber, input[start:i], start})
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			for {
				if i >= n {
					return nil, fmt.Errorf("sql: unterminated string at offset %d", start)
				}
				if input[i] == '\'' {
					if i+1 < n && input[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			toks = append(toks, token{tokString, sb.String(), start})
		case c == '<':
			if i+1 < n && (input[i+1] == '=' || input[i+1] == '>') {
				toks = append(toks, token{tokSymbol, input[i : i+2], i})
				i += 2
			} else {
				toks = append(toks, token{tokSymbol, "<", i})
				i++
			}
		case c == '>':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{tokSymbol, ">=", i})
				i += 2
			} else {
				toks = append(toks, token{tokSymbol, ">", i})
				i++
			}
		case c == '!':
			if i+1 < n && input[i+1] == '=' {
				toks = append(toks, token{tokSymbol, "<>", i})
				i += 2
			} else {
				return nil, fmt.Errorf("sql: unexpected '!' at offset %d", i)
			}
		case strings.ContainsRune("(),.*=+-/;", rune(c)):
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", n})
	return toks, nil
}

// SplitStatements cuts src at every ';' outside a string literal and a
// line comment — the lexer's own quoting rules, so a ';' the parser would
// read as data never ends a statement. It returns the complete statements
// (trimmed, without their ';') and the unterminated tail, which the caller
// may extend with more input and split again. Text holding nothing but
// blanks and comments is no statement: it is dropped, as a statement and
// as a tail.
func SplitStatements(src string) (stmts []string, tail string) {
	start, blank := 0, true
	for i := 0; i < len(src); i++ {
		switch c := src[i]; {
		case c == '\'':
			// Skip to the closing quote; a doubled quote is an escaped one
			// (it closes and reopens the literal, which skips it as well).
			for i++; i < len(src) && src[i] != '\''; i++ {
			}
			blank = false
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == ';':
			if !blank {
				stmts = append(stmts, strings.TrimSpace(src[start:i]))
			}
			start, blank = i+1, true
		case c != ' ' && c != '\t' && c != '\n' && c != '\r':
			blank = false
		}
	}
	if blank {
		return stmts, ""
	}
	return stmts, src[start:]
}
