// Package tuple defines the value, row and schema types shared by the
// storage layer and both query engines.
package tuple

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the supported column types.
type Kind uint8

const (
	// KindInt64 is a signed 64-bit integer (the zero Kind).
	KindInt64 Kind = iota
	// KindFloat64 is a 64-bit float.
	KindFloat64
	// KindString is an immutable string.
	KindString
	// KindDate counts days since 1970-01-01, stored as int64.
	KindDate
	// KindBool stores false/true as int64 0/1.
	KindBool
)

// String returns the lowercase type name.
func (k Kind) String() string {
	if names := [...]string{"int64", "float64", "string", "date", "bool"}; int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a dynamically typed datum. The zero Value is the int64 0.
type Value struct {
	// K discriminates which payload field below is meaningful.
	K Kind
	I int64   // int64, date (days), bool (0/1)
	F float64 // float64
	S string  // string
}

// Int returns an int64 Value.
func Int(v int64) Value { return Value{K: KindInt64, I: v} }

// Float returns a float64 Value.
func Float(v float64) Value { return Value{K: KindFloat64, F: v} }

// Str returns a string Value.
func Str(v string) Value { return Value{K: KindString, S: v} }

// Bool returns a boolean Value.
func Bool(v bool) Value {
	if v {
		return Value{K: KindBool, I: 1}
	}
	return Value{K: KindBool}
}

// Date returns a date Value for the given civil date.
func Date(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Value{K: KindDate, I: int64(t.Unix() / 86400)}
}

// DateFromDays returns a date Value for a raw day count since the epoch.
func DateFromDays(days int64) Value { return Value{K: KindDate, I: days} }

// AsInt returns the integer payload (int64, date or bool kinds).
func (v Value) AsInt() int64 { return v.I }

// AsFloat returns the value as a float64, converting integers.
func (v Value) AsFloat() float64 {
	if v.K == KindFloat64 {
		return v.F
	}
	return float64(v.I)
}

// AsString returns the string payload.
func (v Value) AsString() string { return v.S }

// AsBool reports whether a bool Value is true.
func (v Value) AsBool() bool { return v.I != 0 }

// IsTrue reports whether the value is a true boolean.
func (v Value) IsTrue() bool { return v.K == KindBool && v.I != 0 }

// String renders the value for display and hashing-independent keys
// (dates as YYYY-MM-DD, floats as %g).
func (v Value) String() string {
	if v.K == KindString {
		return v.S
	}
	var buf [32]byte
	return string(v.AppendText(buf[:0]))
}

// AppendText appends the value's String form to dst and returns it.
func (v Value) AppendText(dst []byte) []byte {
	switch v.K {
	case KindInt64:
		return strconv.AppendInt(dst, v.I, 10)
	case KindFloat64:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case KindString:
		return append(dst, v.S...)
	case KindDate:
		return time.Unix(v.I*86400, 0).UTC().AppendFormat(dst, "2006-01-02")
	case KindBool:
		return strconv.AppendBool(dst, v.I != 0)
	default:
		return append(dst, '?')
	}
}

// Compare orders two values of the same kind: -1, 0 or +1. Comparing
// values of different kinds compares the numeric representations when both
// are numeric (int/float/date/bool), otherwise it panics: schema type
// checking happens at plan-build time, so a mismatch here is a bug.
func Compare(a, b Value) int {
	if a.K == b.K {
		switch a.K {
		case KindInt64, KindDate, KindBool:
			return cmpInt(a.I, b.I)
		case KindFloat64:
			return cmpFloat(a.F, b.F)
		case KindString:
			return strings.Compare(a.S, b.S)
		}
	}
	if a.K != KindString && b.K != KindString {
		return cmpFloat(a.AsFloat(), b.AsFloat())
	}
	panic(fmt.Sprintf("tuple: cannot compare %v and %v", a.K, b.K))
}

func cmpInt(a, b int64) int { return cmp.Compare(a, b) }

// cmpFloat is a total order: NaN equals NaN and sorts below every number,
// and -0 equals +0.
func cmpFloat(a, b float64) int { return cmp.Compare(a, b) }

// Equal reports whether two values are equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Hash returns a 64-bit hash of the value, suitable for hash joins. Values
// that are Equal hash identically (numeric kinds hash their float64
// representation only when kinds differ, so int 3 and date 3 are distinct
// but hash-join keys are always same-kind in practice). The hash is an
// inline FNV-1a over a kind tag plus the payload bytes, producing the same
// digest as hash/fnv without the per-call allocation.
func (v Value) Hash() uint64 {
	switch v.K {
	case KindString:
		return HashString(v.S)
	case KindFloat64:
		return hashFloat(v.F)
	default:
		return HashInt(v.I)
	}
}

// hashTag* are the FNV-1a states after absorbing each kind's tag byte.
var (
	hashTagS = hashByte(hashBasis, 's')
	hashTagF = hashByte(hashBasis, 'f')
	hashTagI = hashByte(hashBasis, 'i')
)

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * hashPrime }

// HashString is Value.Hash of a string cell: what a string column hashes
// per cell without building a Value.
func HashString(s string) uint64 {
	h := hashTagS
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * hashPrime
	}
	return h
}

// hashFloat hashes the bit pattern of f after folding the cells Compare
// calls equal onto one: -0 onto +0, every NaN onto one NaN.
func hashFloat(f float64) uint64 {
	switch {
	case f == 0:
		f = 0
	case f != f:
		f = math.NaN()
	}
	return hashUint64(hashTagF, math.Float64bits(f))
}

// HashInt is Value.Hash of a cell of any kind an int64 holds (every kind
// but string and float64).
func HashInt(i int64) uint64 {
	return hashUint64(hashTagI, uint64(i))
}

// hashUint64 folds the eight little-endian bytes of v into an FNV-1a state.
func hashUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v>>(8*i))&0xff) * hashPrime
	}
	return h
}

// Row is an ordered list of values matching a Schema.
type Row []Value

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Concat returns a new row that is the concatenation of r and s.
func (r Row) Concat(s Row) Row {
	out := make(Row, 0, len(r)+len(s))
	out = append(out, r...)
	out = append(out, s...)
	return out
}

// String renders the row as "(v1, v2, ...)".
func (r Row) String() string {
	var buf [64]byte
	return string(r.AppendText(buf[:0]))
}

// AppendText appends the row's String form to dst and returns it.
func (r Row) AppendText(dst []byte) []byte {
	dst = append(dst, '(')
	for i, v := range r {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = v.AppendText(dst)
	}
	return append(dst, ')')
}

// Column describes one schema column.
type Column struct {
	// Name is the column's unique name within its schema.
	Name string
	// Kind is the column's value type.
	Kind Kind
}

// Schema is an ordered list of named, typed columns.
type Schema struct {
	// Cols lists the columns in output order.
	Cols   []Column
	byName map[string]int
}

// NewSchema builds a schema from columns. Duplicate names panic.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Cols: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if _, dup := s.byName[c.Name]; dup {
			panic(fmt.Sprintf("tuple: duplicate column %q", c.Name))
		}
		s.byName[c.Name] = i
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Cols) }

// ColIndex returns the position of the named column.
func (s *Schema) ColIndex(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// MustColIndex returns the position of the named column or panics.
func (s *Schema) MustColIndex(name string) int {
	i, ok := s.byName[name]
	if !ok {
		panic(fmt.Sprintf("tuple: unknown column %q (have %v)", name, s.ColumnNames()))
	}
	return i
}

// ColumnNames returns the column names in order.
func (s *Schema) ColumnNames() []string {
	names := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		names[i] = c.Name
	}
	return names
}

// Concat returns the schema of a join output: the columns of s followed by
// the columns of t. Name collisions are disambiguated with a "right."
// prefix on the second operand, matching the executor's join behaviour.
func (s *Schema) Concat(t *Schema) *Schema {
	cols := make([]Column, 0, len(s.Cols)+len(t.Cols))
	cols = append(cols, s.Cols...)
	for _, c := range t.Cols {
		if _, dup := s.byName[c.Name]; dup {
			c.Name = "right." + c.Name
		}
		cols = append(cols, c)
	}
	return NewSchema(cols...)
}

// Project returns a schema with only the columns at the given positions, in
// the given order — the schema of a relation leg that carries just those.
func (s *Schema) Project(cols []int) *Schema {
	out := make([]Column, len(cols))
	for i, c := range cols {
		out[i] = s.Cols[c]
	}
	return NewSchema(out...)
}

// Validate checks that the row matches the schema arity and kinds.
func (s *Schema) Validate(r Row) error {
	if len(r) != len(s.Cols) {
		return fmt.Errorf("tuple: row arity %d != schema arity %d", len(r), len(s.Cols))
	}
	for i, v := range r {
		if v.K != s.Cols[i].Kind {
			return fmt.Errorf("tuple: column %q is %v, row has %v", s.Cols[i].Name, s.Cols[i].Kind, v.K)
		}
	}
	return nil
}

// String renders the schema as "name kind, ...".
func (s *Schema) String() string {
	parts := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		parts[i] = fmt.Sprintf("%s %s", c.Name, c.Kind)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
