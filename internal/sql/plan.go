package sql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/mjoin"
	"repro/internal/skipper"
	"repro/internal/stats"
	"repro/internal/tuple"
)

// Planner turns parsed SELECT statements into executable query specs over
// a tenant's catalog. The produced skipper.QuerySpec drives both engines:
// the multi-way join core (relations, local filters, join chain) plus a
// shaping stage for post-join filters, projection, aggregation, ORDER BY
// and LIMIT. The shaping stage is assembled from the engine's batch-native
// operators, so it executes batch-at-a-time under both ModeVanilla and
// ModeSkipper regardless of which interface the caller drains.
type Planner struct {
	Catalog *catalog.Catalog
}

// Plan parses and plans one SELECT statement.
func (pl *Planner) Plan(query string) (skipper.QuerySpec, error) {
	stmt, err := Parse(query)
	if err != nil {
		return skipper.QuerySpec{}, err
	}
	return pl.PlanStmt(stmt)
}

// boundTable is one FROM entry resolved against the catalog.
type boundTable struct {
	ref  TableRef
	meta *catalog.TableMeta
}

// joinEdge is an equality between columns of two different tables.
type joinEdge struct {
	t1 int
	c1 string
	t2 int
	c2 string
}

// PlanStmt plans an already-parsed statement.
func (pl *Planner) PlanStmt(stmt *SelectStmt) (skipper.QuerySpec, error) {
	if len(stmt.From) == 0 {
		return skipper.QuerySpec{}, fmt.Errorf("sql: no FROM clause")
	}
	// Resolve tables and enforce globally unique column names (the
	// binder and the MJoin concat schema rely on it).
	tables := make([]boundTable, len(stmt.From))
	colOwner := make(map[string]int)
	for i, ref := range stmt.From {
		meta, err := pl.Catalog.Table(ref.Name)
		if err != nil {
			return skipper.QuerySpec{}, err
		}
		tables[i] = boundTable{ref: ref, meta: meta}
		for _, c := range meta.Schema.Cols {
			if prev, dup := colOwner[c.Name]; dup {
				return skipper.QuerySpec{}, fmt.Errorf("sql: column %q appears in both %q and %q; unique column names are required",
					c.Name, stmt.From[prev].Name, ref.Name)
			}
			colOwner[c.Name] = i
		}
	}
	b := &binder{tables: tables, colOwner: colOwner}

	// Split WHERE into conjuncts and classify each.
	var localFilters = make([][]Node, len(tables))
	var edges []joinEdge
	var postJoin []Node
	for _, conj := range conjuncts(stmt.Where) {
		refs, err := b.tablesOf(conj)
		if err != nil {
			return skipper.QuerySpec{}, err
		}
		if e, ok := asJoinEdge(conj, b); ok {
			edges = append(edges, e)
			continue
		}
		switch len(refs) {
		case 0, 1:
			ti := 0
			if len(refs) == 1 {
				for t := range refs {
					ti = t
				}
			}
			localFilters[ti] = append(localFilters[ti], conj)
		default:
			postJoin = append(postJoin, conj)
		}
	}

	// Build the join chain greedily from the FROM order.
	order, conds, extraEdges, err := buildChain(len(tables), edges)
	if err != nil {
		return skipper.QuerySpec{}, err
	}
	for _, e := range extraEdges {
		postJoin = append(postJoin, BinNode{Op: "=",
			L: ColNode{Ref: ColumnRef{Column: e.c1}},
			R: ColNode{Ref: ColumnRef{Column: e.c2}}})
	}

	// Compute, per table, the set of base columns the whole statement
	// references — each relation's physical projection, what its leg
	// decodes — and the names of those the shaping stage reads, the query's
	// Out: beside them the join stages carry only the keys of later joins.
	proj, out := referencedColumns(stmt, b, postJoin)

	// Assemble the MJoin query in chain order.
	q := mjoin.Query{ID: "sql", Out: out}
	for pos, ti := range order {
		rel := mjoin.Relation{Table: tables[ti].meta, Cols: proj[ti]}
		if fs := localFilters[ti]; len(fs) > 0 {
			pred, err := b.bindConjuncts(fs, tables[ti].meta.Schema)
			if err != nil {
				return skipper.QuerySpec{}, err
			}
			rel.Filter = pred
			// Classify the pushed-down predicate for data skipping: when
			// any prunable structure survives analysis, the scan spec
			// carries a Pruner over the table's catalog statistics, and
			// both engines skip proven result-free segments before
			// issuing their CSD requests.
			if pr, ok := stats.ForPredicate(pred, tables[ti].meta.Schema, tables[ti].meta.Stats); ok {
				rel.Pruner = pr
			}
		}
		q.Relations = append(q.Relations, rel)
		if pos > 0 {
			e := conds[pos-1]
			q.Joins = append(q.Joins, mjoin.JoinCond{Rel: pos, LeftCol: e.c1, RightCol: e.c2})
		}
	}
	// The shaping stage binds against the join's narrow output schema, so a
	// column the projection analysis missed fails here, by name.
	joined, err := q.Validate()
	if err != nil {
		return skipper.QuerySpec{}, err
	}

	shape, err := b.buildShape(stmt, postJoin, joined)
	if err != nil {
		return skipper.QuerySpec{}, err
	}
	return skipper.QuerySpec{Name: "sql", Join: &q, Shape: shape, Bound: joined}, nil
}

// conjuncts flattens a WHERE tree over AND.
func conjuncts(n Node) []Node {
	if n == nil {
		return nil
	}
	if bin, ok := n.(BinNode); ok && bin.Op == "AND" {
		return append(conjuncts(bin.L), conjuncts(bin.R)...)
	}
	return []Node{n}
}

// asJoinEdge recognizes "colA = colB" with the columns on different
// tables.
func asJoinEdge(n Node, b *binder) (joinEdge, bool) {
	bin, ok := n.(BinNode)
	if !ok || bin.Op != "=" {
		return joinEdge{}, false
	}
	lc, lok := bin.L.(ColNode)
	rc, rok := bin.R.(ColNode)
	if !lok || !rok {
		return joinEdge{}, false
	}
	lt, lerr := b.ownerOf(lc.Ref)
	rt, rerr := b.ownerOf(rc.Ref)
	if lerr != nil || rerr != nil || lt == rt {
		return joinEdge{}, false
	}
	return joinEdge{t1: lt, c1: lc.Ref.Column, t2: rt, c2: rc.Ref.Column}, true
}

// buildChain orders the tables into a left-deep chain: order[0] is the
// first FROM table; each next table must share a join edge with an
// already-placed one. The edge used becomes the chain condition (left
// column from the placed side); any surplus edges between placed tables
// are returned for post-join filtering.
func buildChain(n int, edges []joinEdge) (order []int, conds []joinEdge, extra []joinEdge, err error) {
	if n == 1 {
		return []int{0}, nil, edges, nil
	}
	placed := map[int]bool{0: true}
	order = []int{0}
	used := make([]bool, len(edges))
	for len(order) < n {
		found := -1
		var cond joinEdge
		for ei, e := range edges {
			if used[ei] {
				continue
			}
			switch {
			case placed[e.t1] && !placed[e.t2]:
				found, cond = ei, e
			case placed[e.t2] && !placed[e.t1]:
				found, cond = ei, joinEdge{t1: e.t2, c1: e.c2, t2: e.t1, c2: e.c1}
			default:
				continue
			}
			break
		}
		if found < 0 {
			return nil, nil, nil, fmt.Errorf("sql: table %d is not connected by any join condition (cross joins are not supported)", len(order))
		}
		used[found] = true
		placed[cond.t2] = true
		order = append(order, cond.t2)
		conds = append(conds, cond)
	}
	for ei, e := range edges {
		if !used[ei] {
			extra = append(extra, e)
		}
	}
	return order, conds, extra, nil
}

// binder resolves names and converts AST nodes to engine expressions.
type binder struct {
	tables   []boundTable
	colOwner map[string]int
}

// ownerOf resolves a column reference to its table index, checking any
// qualifier against the owning table's name or alias.
func (b *binder) ownerOf(ref ColumnRef) (int, error) {
	ti, ok := b.colOwner[ref.Column]
	if !ok {
		return 0, fmt.Errorf("sql: unknown column %q", ref.Column)
	}
	if ref.Table != "" {
		t := b.tables[ti]
		if ref.Table != t.ref.Name && ref.Table != t.ref.Alias {
			return 0, fmt.Errorf("sql: column %q belongs to %q, not %q", ref.Column, t.ref.Name, ref.Table)
		}
	}
	return ti, nil
}

// tablesOf collects the tables a node references.
func (b *binder) tablesOf(n Node) (map[int]bool, error) {
	out := make(map[int]bool)
	var walk func(Node) error
	walk = func(n Node) error {
		switch v := n.(type) {
		case ColNode:
			ti, err := b.ownerOf(v.Ref)
			if err != nil {
				return err
			}
			out[ti] = true
		case BinNode:
			if err := walk(v.L); err != nil {
				return err
			}
			return walk(v.R)
		case NotNode:
			return walk(v.E)
		case BetweenNode:
			if err := walk(v.E); err != nil {
				return err
			}
			if err := walk(v.Lo); err != nil {
				return err
			}
			return walk(v.Hi)
		case InNode:
			return walk(v.E)
		case LikeNode:
			return walk(v.E)
		case CaseNode:
			for _, w := range v.Whens {
				if err := walk(w.Cond); err != nil {
					return err
				}
				if err := walk(w.Then); err != nil {
					return err
				}
			}
			if v.Else != nil {
				return walk(v.Else)
			}
		case LitNode:
		}
		return nil
	}
	if err := walk(n); err != nil {
		return nil, err
	}
	return out, nil
}

// bindConjuncts binds a conjunction against one schema.
func (b *binder) bindConjuncts(ns []Node, schema *tuple.Schema) (expr.Expr, error) {
	terms := make([]expr.Expr, len(ns))
	for i, n := range ns {
		e, k, err := b.bind(n, schema)
		if err != nil {
			return nil, err
		}
		if k != tuple.KindBool {
			return nil, fmt.Errorf("sql: predicate %s is not boolean", n.nodeString())
		}
		terms[i] = e
	}
	if len(terms) == 1 {
		return terms[0], nil
	}
	return expr.NewAnd(terms...), nil
}

// bind converts an AST node to a bound expression, returning its kind.
func (b *binder) bind(n Node, schema *tuple.Schema) (expr.Expr, tuple.Kind, error) {
	switch v := n.(type) {
	case ColNode:
		idx, ok := schema.ColIndex(v.Ref.Column)
		if !ok {
			return nil, 0, fmt.Errorf("sql: column %q not in scope %v", v.Ref.Column, schema.ColumnNames())
		}
		return expr.NewCol(idx, v.Ref.Column), schema.Cols[idx].Kind, nil
	case LitNode:
		val, err := litValue(v)
		if err != nil {
			return nil, 0, err
		}
		return expr.Lit(val), val.K, nil
	case BinNode:
		return b.bindBin(v, schema)
	case NotNode:
		e, k, err := b.bind(v.E, schema)
		if err != nil {
			return nil, 0, err
		}
		if k != tuple.KindBool {
			return nil, 0, fmt.Errorf("sql: NOT of non-boolean")
		}
		return expr.Not{E: e}, tuple.KindBool, nil
	case BetweenNode:
		// Desugar to (E >= Lo AND E <= Hi) so coercion and arbitrary
		// bound expressions work uniformly.
		ge := BinNode{Op: ">=", L: v.E, R: v.Lo}
		le := BinNode{Op: "<=", L: v.E, R: v.Hi}
		return b.bind(BinNode{Op: "AND", L: ge, R: le}, schema)
	case InNode:
		e, k, err := b.bind(v.E, schema)
		if err != nil {
			return nil, 0, err
		}
		set := make([]tuple.Value, len(v.List))
		for i, lit := range v.List {
			val, err := litValue(lit)
			if err != nil {
				return nil, 0, err
			}
			set[i] = coerceValue(val, k)
		}
		return expr.In{Needle: e, Set: set}, tuple.KindBool, nil
	case LikeNode:
		e, k, err := b.bind(v.E, schema)
		if err != nil {
			return nil, 0, err
		}
		if k != tuple.KindString {
			return nil, 0, fmt.Errorf("sql: LIKE on non-string column")
		}
		if !strings.HasSuffix(v.Pattern, "%") || strings.Count(v.Pattern, "%") != 1 {
			return nil, 0, fmt.Errorf("sql: only prefix LIKE patterns ('abc%%') are supported, got %q", v.Pattern)
		}
		return expr.Prefix{E: e, Prefix: strings.TrimSuffix(v.Pattern, "%")}, tuple.KindBool, nil
	case CaseNode:
		if v.Else == nil {
			return nil, 0, fmt.Errorf("sql: CASE requires an ELSE arm (no NULLs in this engine)")
		}
		out := expr.Case{}
		var outKind tuple.Kind
		for i, w := range v.Whens {
			cond, ck, err := b.bind(w.Cond, schema)
			if err != nil {
				return nil, 0, err
			}
			if ck != tuple.KindBool {
				return nil, 0, fmt.Errorf("sql: CASE WHEN condition is not boolean")
			}
			then, tk, err := b.bind(w.Then, schema)
			if err != nil {
				return nil, 0, err
			}
			if i == 0 {
				outKind = tk
			}
			out.Branches = append(out.Branches, expr.CaseBranch{When: cond, Then: then})
		}
		els, _, err := b.bind(v.Else, schema)
		if err != nil {
			return nil, 0, err
		}
		out.Else = els
		return out, outKind, nil
	default:
		return nil, 0, fmt.Errorf("sql: cannot bind %T", n)
	}
}

var cmpOps = map[string]expr.CmpOp{
	"=": expr.EQ, "<>": expr.NE, "<": expr.LT, "<=": expr.LE, ">": expr.GT, ">=": expr.GE,
}

var arithOps = map[string]expr.ArithOp{
	"+": expr.Add, "-": expr.Sub, "*": expr.Mul, "/": expr.Div,
}

func (b *binder) bindBin(v BinNode, schema *tuple.Schema) (expr.Expr, tuple.Kind, error) {
	switch v.Op {
	case "AND", "OR":
		l, lk, err := b.bind(v.L, schema)
		if err != nil {
			return nil, 0, err
		}
		r, rk, err := b.bind(v.R, schema)
		if err != nil {
			return nil, 0, err
		}
		if lk != tuple.KindBool || rk != tuple.KindBool {
			return nil, 0, fmt.Errorf("sql: %s over non-boolean operands", v.Op)
		}
		if v.Op == "AND" {
			return expr.NewAnd(l, r), tuple.KindBool, nil
		}
		return expr.NewOr(l, r), tuple.KindBool, nil
	}
	if op, ok := cmpOps[v.Op]; ok {
		l, lk, err := b.bind(v.L, schema)
		if err != nil {
			return nil, 0, err
		}
		r, rk, err := b.bind(v.R, schema)
		if err != nil {
			return nil, 0, err
		}
		l, r = coerceSides(l, lk, r, rk)
		return expr.Cmp{Op: op, L: l, R: r}, tuple.KindBool, nil
	}
	if op, ok := arithOps[v.Op]; ok {
		l, lk, err := b.bind(v.L, schema)
		if err != nil {
			return nil, 0, err
		}
		r, rk, err := b.bind(v.R, schema)
		if err != nil {
			return nil, 0, err
		}
		k := tuple.KindInt64
		if v.Op == "/" || lk == tuple.KindFloat64 || rk == tuple.KindFloat64 {
			k = tuple.KindFloat64
		}
		return expr.Arith{Op: op, L: l, R: r}, k, nil
	}
	return nil, 0, fmt.Errorf("sql: unknown operator %q", v.Op)
}

// coerceSides converts a string literal compared against a date column
// into a date literal ('1994-01-01' idiom), on either side.
func coerceSides(l expr.Expr, lk tuple.Kind, r expr.Expr, rk tuple.Kind) (expr.Expr, expr.Expr) {
	if lk == tuple.KindDate && rk == tuple.KindString {
		if c, ok := r.(expr.Const); ok {
			r = expr.Lit(coerceValue(c.V, tuple.KindDate))
		}
	}
	if rk == tuple.KindDate && lk == tuple.KindString {
		if c, ok := l.(expr.Const); ok {
			l = expr.Lit(coerceValue(c.V, tuple.KindDate))
		}
	}
	return l, r
}

// coerceValue converts a string value to a date when the target kind is
// date; other values pass through.
func coerceValue(v tuple.Value, want tuple.Kind) tuple.Value {
	if want == tuple.KindDate && v.K == tuple.KindString {
		if t, err := time.Parse("2006-01-02", v.AsString()); err == nil {
			return tuple.Date(t.Year(), t.Month(), t.Day())
		}
	}
	return v
}

func litValue(l LitNode) (tuple.Value, error) {
	switch l.Kind {
	case "int":
		n, err := strconv.ParseInt(l.Text, 10, 64)
		if err != nil {
			return tuple.Value{}, fmt.Errorf("sql: bad integer %q", l.Text)
		}
		return tuple.Int(n), nil
	case "float":
		f, err := strconv.ParseFloat(l.Text, 64)
		if err != nil {
			return tuple.Value{}, fmt.Errorf("sql: bad float %q", l.Text)
		}
		return tuple.Float(f), nil
	case "string":
		return tuple.Str(l.Text), nil
	case "bool":
		return tuple.Bool(l.Text == "TRUE"), nil
	case "date":
		t, err := time.Parse("2006-01-02", l.Text)
		if err != nil {
			return tuple.Value{}, fmt.Errorf("sql: bad date %q", l.Text)
		}
		return tuple.Date(t.Year(), t.Month(), t.Day()), nil
	default:
		return tuple.Value{}, fmt.Errorf("sql: unknown literal kind %q", l.Kind)
	}
}

// buildShape assembles the post-join pipeline.
func (b *binder) buildShape(stmt *SelectStmt, postJoin []Node, joined *tuple.Schema) (func(engine.Iterator) engine.Iterator, error) {
	hasAgg := len(stmt.GroupBy) > 0
	for _, it := range stmt.Items {
		if it.Agg != "" {
			hasAgg = true
		}
	}

	// Validate table qualifiers on every base-schema reference (bind
	// itself resolves by column name alone, since names are globally
	// unique).
	for _, it := range stmt.Items {
		if it.Expr != nil {
			if _, err := b.tablesOf(it.Expr); err != nil {
				return nil, err
			}
		}
	}
	for _, g := range stmt.GroupBy {
		if _, err := b.ownerOf(g); err != nil {
			return nil, err
		}
	}
	if !hasAgg {
		for _, oi := range stmt.OrderBy {
			if _, err := b.tablesOf(oi.Expr); err != nil {
				return nil, err
			}
		}
	}

	// Pre-bind everything so plan-time errors surface at Plan, not Run.
	var postPred expr.Expr
	if len(postJoin) > 0 {
		p, err := b.bindConjuncts(postJoin, joined)
		if err != nil {
			return nil, err
		}
		postPred = p
	}

	if !hasAgg {
		return b.buildPlainShape(stmt, postPred, joined)
	}
	return b.buildAggShape(stmt, postPred, joined)
}

// buildPlainShape: filters → sort → project → limit; with DISTINCT the
// order becomes filters → project → distinct → sort → limit (and ORDER BY
// must reference output columns).
func (b *binder) buildPlainShape(stmt *SelectStmt, postPred expr.Expr, joined *tuple.Schema) (func(engine.Iterator) engine.Iterator, error) {
	star := len(stmt.Items) == 1 && stmt.Items[0].Star
	var projCols []engine.ProjectCol
	if !star {
		for i, it := range stmt.Items {
			if it.Star {
				return nil, fmt.Errorf("sql: * must be the only select item")
			}
			e, k, err := b.bind(it.Expr, joined)
			if err != nil {
				return nil, err
			}
			projCols = append(projCols, engine.ProjectCol{Name: outName(it, i), Kind: k, E: e})
		}
		if err := uniqueOutputs(len(projCols), func(i int) string { return projCols[i].Name }); err != nil {
			return nil, err
		}
	}
	sh := engine.NewShape(joined)
	if postPred != nil {
		sh.Filter(postPred)
	}
	bindKey := b.bind
	if stmt.Distinct {
		if star {
			return nil, fmt.Errorf("sql: SELECT DISTINCT * is not supported; name the columns")
		}
		sh.Project(projCols).Distinct()
		bindKey = b.bindOutput
	}
	var sortKeys []engine.SortKey
	for _, oi := range stmt.OrderBy {
		e, _, err := bindKey(oi.Expr, sh.Schema())
		if err != nil {
			return nil, err
		}
		sortKeys = append(sortKeys, engine.SortKey{E: e, Desc: oi.Desc})
	}
	if len(sortKeys) > 0 {
		sh.Sort(sortKeys)
	}
	if !stmt.Distinct && !star {
		sh.Project(projCols)
	}
	if stmt.Limit >= 0 {
		sh.Limit(stmt.Limit)
	}
	return sh.Apply, nil
}

// buildAggShape: filters → hash-agg → project → having → sort → limit.
// The Project is left out when the select list is the GROUP BY columns, in
// order and not renamed, then the aggregates: HashAgg's output, whose
// aggregates carry their output names, is then the result.
func (b *binder) buildAggShape(stmt *SelectStmt, postPred expr.Expr, joined *tuple.Schema) (func(engine.Iterator) engine.Iterator, error) {
	groupAt := make(map[string]int)
	var groups []engine.GroupCol
	for _, g := range stmt.GroupBy {
		idx, ok := joined.ColIndex(g.Column)
		if !ok {
			return nil, fmt.Errorf("sql: GROUP BY column %q not in scope", g.Column)
		}
		if _, dup := groupAt[g.Column]; dup {
			return nil, fmt.Errorf("sql: GROUP BY column %q appears twice", g.Column)
		}
		groupAt[g.Column] = len(groups)
		groups = append(groups, engine.GroupCol{
			Name: g.Column, Kind: joined.Cols[idx].Kind, E: expr.NewCol(idx, g.Column),
		})
	}
	var aggs []engine.AggSpec
	type outCol struct {
		name string
		src  int // column of the HashAgg output
	}
	var outs []outCol
	for i, it := range stmt.Items {
		if it.Star {
			return nil, fmt.Errorf("sql: * cannot be combined with aggregation")
		}
		if it.Agg == "" {
			col, ok := it.Expr.(ColNode)
			g, isGroup := groupAt[col.Ref.Column]
			if !ok || !isGroup {
				return nil, fmt.Errorf("sql: non-aggregate select item %q must be a GROUP BY column", it.Expr.nodeString())
			}
			outs = append(outs, outCol{name: outName(it, i), src: g})
			continue
		}
		spec := engine.AggSpec{Name: fmt.Sprintf("agg%d", i)}
		switch it.Agg {
		case "COUNT":
			spec.Kind = engine.AggCount
		case "SUM":
			spec.Kind = engine.AggSum
		case "AVG":
			spec.Kind = engine.AggAvg
		case "MIN":
			spec.Kind = engine.AggMin
		case "MAX":
			spec.Kind = engine.AggMax
		}
		if !it.CountStar {
			e, k, err := b.bind(it.Expr, joined)
			if err != nil {
				return nil, err
			}
			spec.Arg = e
			spec.ArgKind = k
		}
		outs = append(outs, outCol{name: outName(it, i), src: len(groups) + len(aggs)})
		aggs = append(aggs, spec)
	}
	if err := uniqueOutputs(len(outs), func(i int) string { return outs[i].name }); err != nil {
		return nil, err
	}
	identity := len(outs) == len(groups)+len(aggs)
	for i, oc := range outs {
		identity = identity && oc.src == i && (i >= len(groups) || oc.name == groups[i].Name)
	}
	if identity {
		for k := range aggs {
			aggs[k].Name = outs[len(groups)+k].name
		}
	}

	// The output schema, HashAgg's or the Project's, binds HAVING and
	// ORDER BY.
	sh := engine.NewShape(joined)
	if postPred != nil {
		sh.Filter(postPred)
	}
	aggSchema := sh.Aggregate(groups, aggs).Schema()
	outSchema := aggSchema
	if !identity {
		projCols := make([]engine.ProjectCol, len(outs))
		for i, oc := range outs {
			c := aggSchema.Cols[oc.src]
			projCols[i] = engine.ProjectCol{Name: oc.name, Kind: c.Kind, E: expr.NewCol(oc.src, c.Name)}
		}
		outSchema = sh.Project(projCols).Schema()
	}

	if stmt.Having != nil {
		// HAVING references output aliases / group columns.
		p, k, err := b.bindOutput(stmt.Having, outSchema)
		if err != nil {
			return nil, err
		}
		if k != tuple.KindBool {
			return nil, fmt.Errorf("sql: HAVING is not boolean")
		}
		sh.Filter(p)
	}
	var sortKeys []engine.SortKey
	for _, oi := range stmt.OrderBy {
		e, _, err := b.bindOutput(oi.Expr, outSchema)
		if err != nil {
			return nil, err
		}
		sortKeys = append(sortKeys, engine.SortKey{E: e, Desc: oi.Desc})
	}
	if len(sortKeys) > 0 {
		sh.Sort(sortKeys)
	}
	if stmt.Limit >= 0 {
		sh.Limit(stmt.Limit)
	}
	return sh.Apply, nil
}

// uniqueOutputs refuses n output columns, named by name, when two share a
// name: the shaping operators' schemas are keyed by column name.
func uniqueOutputs(n int, name func(int) string) error {
	for i := 1; i < n; i++ {
		for j := range i {
			if name(i) == name(j) {
				return fmt.Errorf("sql: output column %q appears twice; alias one of them", name(i))
			}
		}
	}
	return nil
}

// bindOutput binds a node against the final output schema (aliases and
// group columns), used by HAVING and ORDER BY under aggregation. Column
// qualifiers are dropped: they are not meaningful against computed
// outputs.
func (b *binder) bindOutput(n Node, out *tuple.Schema) (expr.Expr, tuple.Kind, error) {
	return b.bind(stripQualifiers(n), out)
}

// stripQualifiers removes table qualifiers for output binding.
func stripQualifiers(n Node) Node {
	switch v := n.(type) {
	case ColNode:
		v.Ref.Table = ""
		return v
	case BinNode:
		v.L, v.R = stripQualifiers(v.L), stripQualifiers(v.R)
		return v
	case NotNode:
		v.E = stripQualifiers(v.E)
		return v
	case BetweenNode:
		v.E, v.Lo, v.Hi = stripQualifiers(v.E), stripQualifiers(v.Lo), stripQualifiers(v.Hi)
		return v
	case LikeNode:
		v.E = stripQualifiers(v.E)
		return v
	case InNode:
		v.E = stripQualifiers(v.E)
		return v
	case CaseNode:
		for i := range v.Whens {
			v.Whens[i].Cond = stripQualifiers(v.Whens[i].Cond)
			v.Whens[i].Then = stripQualifiers(v.Whens[i].Then)
		}
		if v.Else != nil {
			v.Else = stripQualifiers(v.Else)
		}
		return v
	default:
		return n
	}
}

// referencedColumns computes, per FROM table, the base columns the
// statement can ever read: WHERE (local filters, join keys and post-join
// terms alike), select items, GROUP BY, and — when it binds against the
// base schema — ORDER BY. HAVING and the ORDER BY of aggregated or
// DISTINCT queries bind against the output schema, whose inputs are
// already covered by the select items and GROUP BY. The result becomes
// mjoin.Relation.Cols, the physical projection of each relation's leg on
// both engines. Beside it come the names of the columns the shaping stage
// reads — all of those but what only a local filter or a chain join key
// reads; postJoin holds the conjuncts the stage evaluates, surplus join
// edges included — which become mjoin.Query.Out.
//
// A SELECT *, or any reference the analysis cannot resolve (binding will
// fail later with a proper error anyway), widens the projection to every
// column (nil) and Out to every leg column (nil). A table none of whose
// columns are referenced — SELECT COUNT(*) with no predicate — yields an
// empty non-nil set: a leg of bare row counts.
func referencedColumns(stmt *SelectStmt, b *binder, postJoin []Node) ([][]int, []string) {
	refs := make([]map[string]bool, len(b.tables))
	for i := range refs {
		refs[i] = make(map[string]bool)
	}
	// live collects what the shaping stage reads: every column the walk
	// meets before the WHERE clause, which it walks last, shaped off.
	live, shaped := make(map[string]bool), true
	all := false
	var walk func(n Node)
	walk = func(n Node) {
		if all || n == nil {
			return
		}
		switch v := n.(type) {
		case ColNode:
			ti, err := b.ownerOf(v.Ref)
			if err != nil {
				all = true // unresolvable: give up rather than under-read
				return
			}
			refs[ti][v.Ref.Column] = true
			if shaped {
				live[v.Ref.Column] = true
			}
		case BinNode:
			walk(v.L)
			walk(v.R)
		case NotNode:
			walk(v.E)
		case BetweenNode:
			walk(v.E)
			walk(v.Lo)
			walk(v.Hi)
		case InNode:
			walk(v.E)
		case LikeNode:
			walk(v.E)
		case CaseNode:
			for _, w := range v.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			walk(v.Else)
		case LitNode:
		default:
			all = true
		}
	}
	hasAgg := len(stmt.GroupBy) > 0
	for _, it := range stmt.Items {
		if it.Agg != "" {
			hasAgg = true
		}
	}
	for _, it := range stmt.Items {
		if it.Star {
			all = true
			break
		}
		if it.Expr != nil && !it.CountStar {
			walk(it.Expr)
		}
	}
	for _, g := range stmt.GroupBy {
		walk(ColNode{Ref: g})
	}
	if !hasAgg && !stmt.Distinct {
		for _, oi := range stmt.OrderBy {
			walk(oi.Expr)
		}
	}
	for _, n := range postJoin {
		walk(n)
	}
	shaped = false
	walk(stmt.Where)
	out := make([][]int, len(b.tables))
	if all {
		return out, nil // nil per table: decode and carry everything
	}
	names := make([]string, 0, len(live))
	for ti, t := range b.tables {
		schema := t.meta.Schema
		for _, c := range schema.Cols {
			if live[c.Name] {
				names = append(names, c.Name)
			}
		}
		if len(refs[ti]) == schema.Len() {
			continue // every column referenced: nil, skip the fill work
		}
		cols := make([]int, 0, len(refs[ti]))
		for ci, c := range schema.Cols {
			if refs[ti][c.Name] {
				cols = append(cols, ci)
			}
		}
		out[ti] = cols
	}
	return out, names
}

// outName picks the output column name for a select item.
func outName(it SelectItem, pos int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if it.Agg != "" {
		return strings.ToLower(it.Agg) + "_" + strconv.Itoa(pos)
	}
	if c, ok := it.Expr.(ColNode); ok {
		return c.Ref.Column
	}
	return "col_" + strconv.Itoa(pos)
}
