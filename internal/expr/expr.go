// Package expr provides typed expression trees evaluated against rows.
// Predicates and projections in both query engines are expr.Expr values
// bound to a schema at plan-build time, so evaluation is index-based and
// allocation-free for the common cases.
package expr

import (
	"fmt"
	"strings"

	"repro/internal/tuple"
)

// Expr is an expression evaluated against a row.
type Expr interface {
	// Eval computes the expression over row.
	Eval(row tuple.Row) (tuple.Value, error)
	// String renders the expression for plan display.
	String() string
}

// Col references a column by position. Build one with NewCol or Bind.
type Col struct {
	Idx  int
	Name string
}

// NewCol returns a column reference bound to position idx.
func NewCol(idx int, name string) Col { return Col{Idx: idx, Name: name} }

// Bind resolves a column name against a schema.
func Bind(s *tuple.Schema, name string) Col {
	return Col{Idx: s.MustColIndex(name), Name: name}
}

func (c Col) Eval(row tuple.Row) (tuple.Value, error) {
	if c.Idx < 0 || c.Idx >= len(row) {
		return tuple.Value{}, fmt.Errorf("expr: column %q index %d out of range (row arity %d)", c.Name, c.Idx, len(row))
	}
	return row[c.Idx], nil
}

func (c Col) String() string { return c.Name }

// Const is a literal value.
type Const struct{ V tuple.Value }

// Lit returns a literal expression.
func Lit(v tuple.Value) Const { return Const{V: v} }

func (c Const) Eval(tuple.Row) (tuple.Value, error) { return c.V, nil }
func (c Const) String() string                      { return c.V.String() }

// CmpOp enumerates comparison operators.
type CmpOp uint8

const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (o CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[o]
}

// Cmp compares two sub-expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

func (c Cmp) Eval(row tuple.Row) (tuple.Value, error) {
	l, err := c.L.Eval(row)
	if err != nil {
		return tuple.Value{}, err
	}
	r, err := c.R.Eval(row)
	if err != nil {
		return tuple.Value{}, err
	}
	rel := tuple.Compare(l, r)
	var out bool
	switch c.Op {
	case EQ:
		out = rel == 0
	case NE:
		out = rel != 0
	case LT:
		out = rel < 0
	case LE:
		out = rel <= 0
	case GT:
		out = rel > 0
	case GE:
		out = rel >= 0
	}
	return tuple.Bool(out), nil
}

func (c Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R)
}

// ArithOp enumerates arithmetic operators.
type ArithOp uint8

const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (o ArithOp) String() string { return [...]string{"+", "-", "*", "/"}[o] }

// Arith applies an arithmetic operator. Integer operands yield int64
// results (except Div, which always yields float64); any float operand
// promotes the result to float64.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

func (a Arith) Eval(row tuple.Row) (tuple.Value, error) {
	l, err := a.L.Eval(row)
	if err != nil {
		return tuple.Value{}, err
	}
	r, err := a.R.Eval(row)
	if err != nil {
		return tuple.Value{}, err
	}
	if l.K == tuple.KindString || r.K == tuple.KindString {
		return tuple.Value{}, fmt.Errorf("expr: arithmetic on string operand in %s", a)
	}
	if a.Op == Div {
		d := r.AsFloat()
		if d == 0 {
			return tuple.Value{}, fmt.Errorf("expr: division by zero in %s", a)
		}
		return tuple.Float(l.AsFloat() / d), nil
	}
	if l.K == tuple.KindFloat64 || r.K == tuple.KindFloat64 {
		lf, rf := l.AsFloat(), r.AsFloat()
		switch a.Op {
		case Add:
			return tuple.Float(lf + rf), nil
		case Sub:
			return tuple.Float(lf - rf), nil
		default:
			return tuple.Float(lf * rf), nil
		}
	}
	li, ri := l.AsInt(), r.AsInt()
	switch a.Op {
	case Add:
		return tuple.Int(li + ri), nil
	case Sub:
		return tuple.Int(li - ri), nil
	default:
		return tuple.Int(li * ri), nil
	}
}

func (a Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// And is an n-ary conjunction.
type And struct{ Terms []Expr }

// NewAnd builds a conjunction; with zero terms it is constant true.
func NewAnd(terms ...Expr) And { return And{Terms: terms} }

func (a And) Eval(row tuple.Row) (tuple.Value, error) {
	for _, t := range a.Terms {
		v, err := t.Eval(row)
		if err != nil {
			return tuple.Value{}, err
		}
		if v.K != tuple.KindBool {
			return tuple.Value{}, fmt.Errorf("expr: AND term %s is not boolean", t)
		}
		if !v.AsBool() {
			return tuple.Bool(false), nil
		}
	}
	return tuple.Bool(true), nil
}

func (a And) String() string { return joinTerms(a.Terms, " AND ") }

// Or is an n-ary disjunction.
type Or struct{ Terms []Expr }

// NewOr builds a disjunction; with zero terms it is constant false.
func NewOr(terms ...Expr) Or { return Or{Terms: terms} }

func (o Or) Eval(row tuple.Row) (tuple.Value, error) {
	for _, t := range o.Terms {
		v, err := t.Eval(row)
		if err != nil {
			return tuple.Value{}, err
		}
		if v.K != tuple.KindBool {
			return tuple.Value{}, fmt.Errorf("expr: OR term %s is not boolean", t)
		}
		if v.AsBool() {
			return tuple.Bool(true), nil
		}
	}
	return tuple.Bool(false), nil
}

func (o Or) String() string { return joinTerms(o.Terms, " OR ") }

func joinTerms(terms []Expr, sep string) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

// Not negates a boolean sub-expression.
type Not struct{ E Expr }

func (n Not) Eval(row tuple.Row) (tuple.Value, error) {
	v, err := n.E.Eval(row)
	if err != nil {
		return tuple.Value{}, err
	}
	if v.K != tuple.KindBool {
		return tuple.Value{}, fmt.Errorf("expr: NOT of non-boolean %s", n.E)
	}
	return tuple.Bool(!v.AsBool()), nil
}

func (n Not) String() string { return fmt.Sprintf("NOT %s", n.E) }

// In tests membership of the needle in a fixed literal set.
type In struct {
	Needle Expr
	Set    []tuple.Value
}

func (in In) Eval(row tuple.Row) (tuple.Value, error) {
	v, err := in.Needle.Eval(row)
	if err != nil {
		return tuple.Value{}, err
	}
	for _, m := range in.Set {
		if m.K == v.K && tuple.Equal(v, m) {
			return tuple.Bool(true), nil
		}
	}
	return tuple.Bool(false), nil
}

func (in In) String() string {
	parts := make([]string, len(in.Set))
	for i, v := range in.Set {
		parts[i] = v.String()
	}
	return fmt.Sprintf("%s IN (%s)", in.Needle, strings.Join(parts, ", "))
}

// Between tests Lo <= E <= Hi (inclusive on both ends, as in SQL).
type Between struct {
	E      Expr
	Lo, Hi tuple.Value
}

func (b Between) Eval(row tuple.Row) (tuple.Value, error) {
	v, err := b.E.Eval(row)
	if err != nil {
		return tuple.Value{}, err
	}
	return tuple.Bool(tuple.Compare(v, b.Lo) >= 0 && tuple.Compare(v, b.Hi) <= 0), nil
}

func (b Between) String() string {
	return fmt.Sprintf("%s BETWEEN %s AND %s", b.E, b.Lo, b.Hi)
}

// Case is a searched CASE expression: the first branch whose condition is
// true yields the result; otherwise Else (which must be non-nil).
type Case struct {
	Branches []CaseBranch
	Else     Expr
}

// CaseBranch is one WHEN/THEN arm.
type CaseBranch struct {
	When Expr
	Then Expr
}

func (c Case) Eval(row tuple.Row) (tuple.Value, error) {
	for _, b := range c.Branches {
		cond, err := b.When.Eval(row)
		if err != nil {
			return tuple.Value{}, err
		}
		if cond.K != tuple.KindBool {
			return tuple.Value{}, fmt.Errorf("expr: CASE condition %s is not boolean", b.When)
		}
		if cond.AsBool() {
			return b.Then.Eval(row)
		}
	}
	if c.Else == nil {
		return tuple.Value{}, fmt.Errorf("expr: CASE fell through with no ELSE")
	}
	return c.Else.Eval(row)
}

func (c Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, b := range c.Branches {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", b.When, b.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", c.Else)
	}
	sb.WriteString(" END")
	return sb.String()
}

// Prefix tests whether a string expression starts with a literal prefix
// (the common LIKE 'x%' pattern in the benchmark queries).
type Prefix struct {
	E      Expr
	Prefix string
}

func (p Prefix) Eval(row tuple.Row) (tuple.Value, error) {
	v, err := p.E.Eval(row)
	if err != nil {
		return tuple.Value{}, err
	}
	if v.K != tuple.KindString {
		return tuple.Value{}, fmt.Errorf("expr: PREFIX of non-string %s", p.E)
	}
	return tuple.Bool(strings.HasPrefix(v.AsString(), p.Prefix)), nil
}

func (p Prefix) String() string { return fmt.Sprintf("%s LIKE '%s%%'", p.E, p.Prefix) }

// EvalBool evaluates e and asserts a boolean result.
func EvalBool(e Expr, row tuple.Row) (bool, error) {
	v, err := e.Eval(row)
	if err != nil {
		return false, err
	}
	if v.K != tuple.KindBool {
		return false, fmt.Errorf("expr: predicate %s returned %v, want bool", e, v.K)
	}
	return v.AsBool(), nil
}

// Columns calls fn for every column reference in e. It reports false when e
// contains a node of a type this package does not define, whose references
// it cannot see.
func Columns(e Expr, fn func(Col)) bool {
	switch v := e.(type) {
	case Col:
		fn(v)
		return true
	case Const:
		return true
	case Cmp:
		return columnsOf(fn, v.L, v.R)
	case Arith:
		return columnsOf(fn, v.L, v.R)
	case And:
		return columnsOf(fn, v.Terms...)
	case Or:
		return columnsOf(fn, v.Terms...)
	case Not:
		return Columns(v.E, fn)
	case In:
		return Columns(v.Needle, fn)
	case Between:
		return Columns(v.E, fn)
	case Prefix:
		return Columns(v.E, fn)
	case Case:
		ok := true
		for _, b := range v.Branches {
			ok = columnsOf(fn, b.When, b.Then) && ok
		}
		return (v.Else == nil || Columns(v.Else, fn)) && ok
	default:
		return false
	}
}

// columnsOf is Columns over several expressions.
func columnsOf(fn func(Col), es ...Expr) bool {
	ok := true
	for _, e := range es {
		ok = Columns(e, fn) && ok
	}
	return ok
}

// True is a predicate that always holds.
var True Expr = Const{V: tuple.Bool(true)}

// Convenience constructors for plans built by hand. Every workload query is
// SQL, so only tests build plans this way.

// ColEq builds schema-bound "col = lit".
func ColEq(s *tuple.Schema, col string, v tuple.Value) Expr {
	return Cmp{Op: EQ, L: Bind(s, col), R: Lit(v)}
}

// ColBetween builds schema-bound "col BETWEEN lo AND hi".
func ColBetween(s *tuple.Schema, col string, lo, hi tuple.Value) Expr {
	return Between{E: Bind(s, col), Lo: lo, Hi: hi}
}

// ColLT builds schema-bound "col < lit".
func ColLT(s *tuple.Schema, col string, v tuple.Value) Expr {
	return Cmp{Op: LT, L: Bind(s, col), R: Lit(v)}
}

// ColGE builds schema-bound "col >= lit".
func ColGE(s *tuple.Schema, col string, v tuple.Value) Expr {
	return Cmp{Op: GE, L: Bind(s, col), R: Lit(v)}
}
