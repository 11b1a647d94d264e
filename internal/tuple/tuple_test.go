package tuple

import (
	"reflect"
	"testing"
	"time"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := Int(42); v.K != KindInt64 || v.AsInt() != 42 {
		t.Errorf("Int: %+v", v)
	}
	if v := Float(2.5); v.K != KindFloat64 || v.AsFloat() != 2.5 {
		t.Errorf("Float: %+v", v)
	}
	if v := Str("abc"); v.K != KindString || v.AsString() != "abc" {
		t.Errorf("Str: %+v", v)
	}
	if v := Bool(true); !v.AsBool() || !v.IsTrue() {
		t.Errorf("Bool(true): %+v", v)
	}
	if v := Bool(false); v.AsBool() || v.IsTrue() {
		t.Errorf("Bool(false): %+v", v)
	}
	if v := Date(1970, time.January, 2); v.AsInt() != 1 {
		t.Errorf("Date epoch+1: %+v", v)
	}
	if v := Date(1995, time.March, 15); v.String() != "1995-03-15" {
		t.Errorf("Date string: %v", v)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindInt64:   "int64",
		KindFloat64: "float64",
		KindString:  "string",
		KindDate:    "date",
		KindBool:    "bool",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("kind %d = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind renders %q", Kind(99).String())
	}
}

func TestValueStrings(t *testing.T) {
	cases := map[string]Value{
		"42":    Int(42),
		"2.5":   Float(2.5),
		"hi":    Str("hi"),
		"true":  Bool(true),
		"false": Bool(false),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("%+v renders %q, want %q", v, got, want)
		}
	}
	if (Value{K: Kind(99)}).String() != "?" {
		t.Error("unknown value kind should render ?")
	}
}

func TestRowString(t *testing.T) {
	r := Row{Int(1), Str("x")}
	if r.String() != "(1, x)" {
		t.Fatalf("row renders %q", r.String())
	}
}

func TestSchemaString(t *testing.T) {
	s := NewSchema(Column{"a", KindInt64}, Column{"b", KindString})
	if got := s.String(); got != "(a int64, b string)" {
		t.Fatalf("schema renders %q", got)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Float(2.5), -1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Date(2000, 1, 1), Date(2000, 1, 2), -1},
		{Bool(false), Bool(true), -1},
		{Int(2), Float(2.0), 0},  // mixed numeric
		{Int(3), Float(2.5), 1},  // mixed numeric
		{Float(1.5), Int(2), -1}, // mixed numeric
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareStringIntPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on string/int comparison")
		}
	}()
	Compare(Str("a"), Int(1))
}

func TestHashEqualValuesEqualHashes(t *testing.T) {
	pairs := [][2]Value{
		{Int(7), Int(7)},
		{Str("xy"), Str("xy")},
		{Float(3.25), Float(3.25)},
		{Date(2020, 5, 5), Date(2020, 5, 5)},
	}
	for _, p := range pairs {
		if p[0].Hash() != p[1].Hash() {
			t.Errorf("hash mismatch for %v", p[0])
		}
	}
	if Int(7).Hash() == Int(8).Hash() {
		t.Error("distinct ints collide (suspicious)")
	}
	if Str("a").Hash() == Str("b").Hash() {
		t.Error("distinct strings collide (suspicious)")
	}
}

func TestSchemaBasics(t *testing.T) {
	s := NewSchema(
		Column{"id", KindInt64},
		Column{"name", KindString},
		Column{"price", KindFloat64},
	)
	if s.Len() != 3 {
		t.Fatalf("len %d", s.Len())
	}
	if i := s.MustColIndex("name"); i != 1 {
		t.Fatalf("name at %d", i)
	}
	if _, ok := s.ColIndex("missing"); ok {
		t.Fatal("found missing column")
	}
	if got := s.ColumnNames(); !reflect.DeepEqual(got, []string{"id", "name", "price"}) {
		t.Fatalf("names %v", got)
	}
}

func TestSchemaDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate column")
		}
	}()
	NewSchema(Column{"a", KindInt64}, Column{"a", KindString})
}

func TestSchemaConcatDisambiguates(t *testing.T) {
	a := NewSchema(Column{"id", KindInt64}, Column{"x", KindString})
	b := NewSchema(Column{"id", KindInt64}, Column{"y", KindFloat64})
	j := a.Concat(b)
	want := []string{"id", "x", "right.id", "y"}
	if got := j.ColumnNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("concat names %v want %v", got, want)
	}
}

func TestSchemaProject(t *testing.T) {
	s := NewSchema(Column{"a", KindInt64}, Column{"b", KindString}, Column{"c", KindBool})
	p := s.Project([]int{2, 0})
	if got := p.ColumnNames(); !reflect.DeepEqual(got, []string{"c", "a"}) {
		t.Fatalf("project %v", got)
	}
	if p.Cols[0].Kind != KindBool || p.Cols[1].Kind != KindInt64 {
		t.Fatalf("kinds %v", p.Cols)
	}
}

func TestValidate(t *testing.T) {
	s := NewSchema(Column{"a", KindInt64}, Column{"b", KindString})
	if err := s.Validate(Row{Int(1), Str("x")}); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	if err := s.Validate(Row{Int(1)}); err == nil {
		t.Fatal("short row accepted")
	}
	if err := s.Validate(Row{Str("x"), Str("y")}); err == nil {
		t.Fatal("wrong kind accepted")
	}
}

func TestRowCloneAndConcat(t *testing.T) {
	r := Row{Int(1), Str("a")}
	c := r.Clone()
	c[0] = Int(9)
	if r[0].AsInt() != 1 {
		t.Fatal("clone aliases original")
	}
	j := r.Concat(Row{Bool(true)})
	if len(j) != 3 || !j[2].IsTrue() {
		t.Fatalf("concat %v", j)
	}
}
