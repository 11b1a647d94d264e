package expr

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tuple"
)

var testSchema = tuple.NewSchema(
	tuple.Column{Name: "id", Kind: tuple.KindInt64},
	tuple.Column{Name: "price", Kind: tuple.KindFloat64},
	tuple.Column{Name: "name", Kind: tuple.KindString},
	tuple.Column{Name: "ship", Kind: tuple.KindDate},
)

var testRow = tuple.Row{
	tuple.Int(7),
	tuple.Float(19.5),
	tuple.Str("widget"),
	tuple.Date(1994, 6, 1),
}

func mustEval(t *testing.T, e Expr) tuple.Value {
	t.Helper()
	v, err := e.Eval(testRow)
	if err != nil {
		t.Fatalf("eval %s: %v", e, err)
	}
	return v
}

func TestColAndConst(t *testing.T) {
	if v := mustEval(t, Bind(testSchema, "id")); v.AsInt() != 7 {
		t.Errorf("col id = %v", v)
	}
	if v := mustEval(t, Lit(tuple.Str("x"))); v.AsString() != "x" {
		t.Errorf("const = %v", v)
	}
	if _, err := (Col{Idx: 99, Name: "bogus"}).Eval(testRow); err == nil {
		t.Error("out-of-range column accepted")
	}
}

func TestCmpOperators(t *testing.T) {
	cases := []struct {
		op   CmpOp
		l, r tuple.Value
		want bool
	}{
		{EQ, tuple.Int(1), tuple.Int(1), true},
		{EQ, tuple.Int(1), tuple.Int(2), false},
		{NE, tuple.Int(1), tuple.Int(2), true},
		{LT, tuple.Int(1), tuple.Int(2), true},
		{LE, tuple.Int(2), tuple.Int(2), true},
		{GT, tuple.Int(3), tuple.Int(2), true},
		{GE, tuple.Int(1), tuple.Int(2), false},
		{LT, tuple.Str("apple"), tuple.Str("banana"), true},
	}
	for _, c := range cases {
		e := Cmp{Op: c.op, L: Lit(c.l), R: Lit(c.r)}
		if v := mustEval(t, e); v.AsBool() != c.want {
			t.Errorf("%s = %v, want %v", e, v, c.want)
		}
	}
}

func TestArith(t *testing.T) {
	cases := []struct {
		op   ArithOp
		l, r tuple.Value
		want tuple.Value
	}{
		{Add, tuple.Int(2), tuple.Int(3), tuple.Int(5)},
		{Sub, tuple.Int(2), tuple.Int(3), tuple.Int(-1)},
		{Mul, tuple.Int(4), tuple.Int(3), tuple.Int(12)},
		{Add, tuple.Float(1.5), tuple.Int(1), tuple.Float(2.5)},
		{Mul, tuple.Float(2), tuple.Float(3), tuple.Float(6)},
		{Div, tuple.Int(7), tuple.Int(2), tuple.Float(3.5)},
	}
	for _, c := range cases {
		e := Arith{Op: c.op, L: Lit(c.l), R: Lit(c.r)}
		v := mustEval(t, e)
		if v.K != c.want.K || v.AsFloat() != c.want.AsFloat() {
			t.Errorf("%s = %v, want %v", e, v, c.want)
		}
	}
}

func TestArithErrors(t *testing.T) {
	if _, err := (Arith{Op: Div, L: Lit(tuple.Int(1)), R: Lit(tuple.Int(0))}).Eval(testRow); err == nil {
		t.Error("division by zero accepted")
	}
	if _, err := (Arith{Op: Add, L: Lit(tuple.Str("a")), R: Lit(tuple.Int(1))}).Eval(testRow); err == nil {
		t.Error("string arithmetic accepted")
	}
}

func TestBooleanOps(t *testing.T) {
	tr, fa := Lit(tuple.Bool(true)), Lit(tuple.Bool(false))
	if v := mustEval(t, NewAnd(tr, tr)); !v.AsBool() {
		t.Error("true AND true")
	}
	if v := mustEval(t, NewAnd(tr, fa)); v.AsBool() {
		t.Error("true AND false")
	}
	if v := mustEval(t, NewAnd()); !v.AsBool() {
		t.Error("empty AND should be true")
	}
	if v := mustEval(t, NewOr(fa, tr)); !v.AsBool() {
		t.Error("false OR true")
	}
	if v := mustEval(t, NewOr()); v.AsBool() {
		t.Error("empty OR should be false")
	}
	if v := mustEval(t, Not{E: fa}); !v.AsBool() {
		t.Error("NOT false")
	}
	if _, err := (Not{E: Lit(tuple.Int(1))}).Eval(testRow); err == nil {
		t.Error("NOT of int accepted")
	}
}

func TestShortCircuit(t *testing.T) {
	// The second AND term would error (string arithmetic); short-circuit
	// must prevent its evaluation.
	bad := Cmp{Op: EQ, L: Arith{Op: Add, L: Lit(tuple.Str("a")), R: Lit(tuple.Int(1))}, R: Lit(tuple.Int(0))}
	e := NewAnd(Lit(tuple.Bool(false)), bad)
	if v := mustEval(t, e); v.AsBool() {
		t.Error("short-circuit AND wrong result")
	}
	o := NewOr(Lit(tuple.Bool(true)), bad)
	if v := mustEval(t, o); !v.AsBool() {
		t.Error("short-circuit OR wrong result")
	}
}

func TestInAndBetween(t *testing.T) {
	in := In{Needle: Bind(testSchema, "name"), Set: []tuple.Value{tuple.Str("gear"), tuple.Str("widget")}}
	if v := mustEval(t, in); !v.AsBool() {
		t.Error("IN missed member")
	}
	in2 := In{Needle: Bind(testSchema, "name"), Set: []tuple.Value{tuple.Str("gear")}}
	if v := mustEval(t, in2); v.AsBool() {
		t.Error("IN matched non-member")
	}
	bt := ColBetween(testSchema, "ship", tuple.Date(1994, 1, 1), tuple.Date(1994, 12, 31))
	if v := mustEval(t, bt); !v.AsBool() {
		t.Error("BETWEEN missed in-range date")
	}
	bt2 := ColBetween(testSchema, "ship", tuple.Date(1995, 1, 1), tuple.Date(1995, 12, 31))
	if v := mustEval(t, bt2); v.AsBool() {
		t.Error("BETWEEN matched out-of-range date")
	}
	// Boundary inclusivity.
	bt3 := ColBetween(testSchema, "ship", tuple.Date(1994, 6, 1), tuple.Date(1994, 6, 1))
	if v := mustEval(t, bt3); !v.AsBool() {
		t.Error("BETWEEN should include boundaries")
	}
}

func TestCase(t *testing.T) {
	e := Case{
		Branches: []CaseBranch{
			{When: ColEq(testSchema, "name", tuple.Str("widget")), Then: Lit(tuple.Int(1))},
		},
		Else: Lit(tuple.Int(0)),
	}
	if v := mustEval(t, e); v.AsInt() != 1 {
		t.Errorf("case = %v", v)
	}
	e2 := Case{
		Branches: []CaseBranch{
			{When: ColEq(testSchema, "name", tuple.Str("gear")), Then: Lit(tuple.Int(1))},
		},
		Else: Lit(tuple.Int(0)),
	}
	if v := mustEval(t, e2); v.AsInt() != 0 {
		t.Errorf("case else = %v", v)
	}
	e3 := Case{Branches: []CaseBranch{{When: Lit(tuple.Bool(false)), Then: Lit(tuple.Int(1))}}}
	if _, err := e3.Eval(testRow); err == nil {
		t.Error("CASE without ELSE fell through silently")
	}
}

func TestPrefix(t *testing.T) {
	if v := mustEval(t, Prefix{E: Bind(testSchema, "name"), Prefix: "wid"}); !v.AsBool() {
		t.Error("prefix missed")
	}
	if v := mustEval(t, Prefix{E: Bind(testSchema, "name"), Prefix: "zz"}); v.AsBool() {
		t.Error("prefix false positive")
	}
	if _, err := (Prefix{E: Bind(testSchema, "id"), Prefix: "x"}).Eval(testRow); err == nil {
		t.Error("prefix of int accepted")
	}
}

func TestEvalBool(t *testing.T) {
	ok, err := EvalBool(ColGE(testSchema, "id", tuple.Int(5)), testRow)
	if err != nil || !ok {
		t.Fatalf("EvalBool: %v %v", ok, err)
	}
	if _, err := EvalBool(Lit(tuple.Int(1)), testRow); err == nil {
		t.Error("non-boolean predicate accepted")
	}
}

func TestAllNodeStringsRender(t *testing.T) {
	id := Bind(testSchema, "id")
	name := Bind(testSchema, "name")
	nodes := []Expr{
		id,
		Lit(tuple.Float(1.5)),
		Cmp{Op: NE, L: id, R: Lit(tuple.Int(0))},
		Arith{Op: Div, L: id, R: Lit(tuple.Int(2))},
		NewAnd(Lit(tuple.Bool(true))),
		NewOr(Lit(tuple.Bool(false))),
		Not{E: Lit(tuple.Bool(true))},
		In{Needle: name, Set: []tuple.Value{tuple.Str("a"), tuple.Str("b")}},
		Between{E: id, Lo: tuple.Int(1), Hi: tuple.Int(5)},
		Case{Branches: []CaseBranch{{When: Lit(tuple.Bool(true)), Then: Lit(tuple.Int(1))}}, Else: Lit(tuple.Int(0))},
		Prefix{E: name, Prefix: "wi"},
		True,
	}
	for _, n := range nodes {
		if s := n.String(); s == "" {
			t.Errorf("%T renders empty", n)
		}
	}
	for _, op := range []CmpOp{EQ, NE, LT, LE, GT, GE} {
		if op.String() == "" {
			t.Errorf("cmp op %d empty", op)
		}
	}
	for _, op := range []ArithOp{Add, Sub, Mul, Div} {
		if op.String() == "" {
			t.Errorf("arith op %d empty", op)
		}
	}
}

func TestErrorPropagationThroughCompounds(t *testing.T) {
	bad := Col{Idx: 99, Name: "bogus"}
	pred := Cmp{Op: EQ, L: bad, R: Lit(tuple.Int(1))}
	cases := []Expr{
		Cmp{Op: EQ, L: bad, R: Lit(tuple.Int(1))},
		Cmp{Op: EQ, L: Lit(tuple.Int(1)), R: bad},
		Arith{Op: Add, L: bad, R: Lit(tuple.Int(1))},
		Arith{Op: Add, L: Lit(tuple.Int(1)), R: bad},
		NewAnd(pred),
		NewOr(pred),
		Not{E: pred},
		In{Needle: bad, Set: []tuple.Value{tuple.Int(1)}},
		Between{E: bad, Lo: tuple.Int(1), Hi: tuple.Int(2)},
		Case{Branches: []CaseBranch{{When: pred, Then: Lit(tuple.Int(1))}}, Else: Lit(tuple.Int(0))},
		Case{Branches: []CaseBranch{{When: Lit(tuple.Bool(true)), Then: bad}}, Else: Lit(tuple.Int(0))},
		Case{Branches: []CaseBranch{{When: Lit(tuple.Bool(false)), Then: Lit(tuple.Int(1))}}, Else: bad},
		Prefix{E: bad, Prefix: "x"},
	}
	for i, e := range cases {
		if _, err := e.Eval(testRow); err == nil {
			t.Errorf("case %d (%T) swallowed the error", i, e)
		}
	}
}

func TestNonBooleanConditions(t *testing.T) {
	intLit := Lit(tuple.Int(1))
	if _, err := NewAnd(intLit).Eval(testRow); err == nil {
		t.Error("AND over int accepted")
	}
	if _, err := NewOr(intLit).Eval(testRow); err == nil {
		t.Error("OR over int accepted")
	}
	c := Case{Branches: []CaseBranch{{When: intLit, Then: intLit}}, Else: intLit}
	if _, err := c.Eval(testRow); err == nil {
		t.Error("CASE with int condition accepted")
	}
}

func TestStringRendering(t *testing.T) {
	e := NewAnd(
		ColGE(testSchema, "ship", tuple.Date(1994, 1, 1)),
		ColLT(testSchema, "price", tuple.Float(100)),
	)
	s := e.String()
	for _, want := range []string{"ship", ">=", "price", "<", "AND"} {
		if !strings.Contains(s, want) {
			t.Errorf("render %q missing %q", s, want)
		}
	}
}

// TestColumnsVisitsEveryReference: Columns reaches the column references
// under every node type of this package and says so when it meets a node it
// does not know.
func TestColumnsVisitsEveryReference(t *testing.T) {
	col := func(i int) Col { return NewCol(i, fmt.Sprintf("c%d", i)) }
	e := NewAnd(
		Cmp{Op: LT, L: col(0), R: Arith{Op: Add, L: col(1), R: Lit(tuple.Int(1))}},
		NewOr(Not{E: In{Needle: col(2), Set: []tuple.Value{tuple.Int(1)}}}, Between{E: col(3), Lo: tuple.Int(0), Hi: tuple.Int(9)}),
		Prefix{E: col(4), Prefix: "x"},
		Cmp{Op: EQ, L: Case{Branches: []CaseBranch{{When: Cmp{Op: GT, L: col(5), R: Lit(tuple.Int(0))}, Then: col(6)}}, Else: col(7)}, R: Lit(tuple.Int(2))},
	)
	var seen []int
	if !Columns(e, func(c Col) { seen = append(seen, c.Idx) }) {
		t.Fatal("Columns reported an unknown node in a tree of known ones")
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(seen, want) {
		t.Fatalf("visited columns %v, want %v", seen, want)
	}
	if Columns(NewAnd(col(0), opaqueExpr{}), func(Col) {}) {
		t.Fatal("Columns claimed to see through a foreign node")
	}
}

// opaqueExpr is an Expr defined outside package expr's node set.
type opaqueExpr struct{}

func (opaqueExpr) Eval(tuple.Row) (tuple.Value, error) { return tuple.Bool(true), nil }
func (opaqueExpr) String() string                      { return "opaque" }
