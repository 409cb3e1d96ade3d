package exec

import (
	"fmt"
	"strings"

	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/types"
)

// EvalExpr evaluates a scalar expression in the given scope.
func (ctx *Context) EvalExpr(e ast.Expr, env *Env) (types.Value, error) {
	switch e := e.(type) {
	case *ast.Literal:
		return e.Value, nil

	case *ast.Param:
		if e.Index < 0 || e.Index >= len(ctx.Params) {
			return types.Null, fmt.Errorf("sql: statement has parameter %d but only %d values were bound", e.Index+1, len(ctx.Params))
		}
		return ctx.Params[e.Index], nil

	case *ast.ColumnRef:
		return env.column(e) // a nil scope resolves nothing

	case *ast.Binary:
		return ctx.evalBinary(e, env)

	case *ast.Unary:
		v, err := ctx.EvalExpr(e.Expr, env)
		if err != nil {
			return types.Null, err
		}
		if e.Op == "NOT" {
			return tristateValue(types.Truth(v).Not()), nil
		}
		// unary minus
		if v.IsNull() {
			return types.Null, nil
		}
		switch v.Kind() {
		case types.KindInt:
			return types.NewInt(-v.Int()), nil
		case types.KindFloat:
			return types.NewFloat(-v.Float()), nil
		}
		return types.Null, fmt.Errorf("sql: unary minus requires a numeric operand, got %s", v.Kind())

	case *ast.IsNull:
		v, err := ctx.EvalExpr(e.Expr, env)
		if err != nil {
			return types.Null, err
		}
		res := v.IsNull()
		if e.Not {
			res = !res
		}
		return types.NewBool(res), nil

	case *ast.Between:
		v, err := ctx.EvalExpr(e.Expr, env)
		if err != nil {
			return types.Null, err
		}
		lo, err := ctx.EvalExpr(e.Lo, env)
		if err != nil {
			return types.Null, err
		}
		hi, err := ctx.EvalExpr(e.Hi, env)
		if err != nil {
			return types.Null, err
		}
		ge, err := types.CompareOp(">=", v, lo)
		if err != nil {
			return types.Null, err
		}
		le, err := types.CompareOp("<=", v, hi)
		if err != nil {
			return types.Null, err
		}
		t := ge.And(le)
		if e.Not {
			t = t.Not()
		}
		return tristateValue(t), nil

	case *ast.Like:
		v, err := ctx.EvalExpr(e.Expr, env)
		if err != nil {
			return types.Null, err
		}
		pat, err := ctx.EvalExpr(e.Pattern, env)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() || pat.IsNull() {
			return types.Null, nil
		}
		m := likeMatch(pat.String(), v.String())
		if e.Not {
			m = !m
		}
		return types.NewBool(m), nil

	case *ast.InList:
		return ctx.evalInList(e, env)

	case *ast.InSubquery:
		return ctx.evalInSubquery(e, env)

	case *ast.Exists:
		rel, err := ctx.evalSubquery(e.Select, env)
		if err != nil {
			return types.Null, err
		}
		res := len(rel.Rows) > 0
		if e.Not {
			res = !res
		}
		return types.NewBool(res), nil

	case *ast.ScalarSubquery:
		rel, err := ctx.evalSubquery(e.Select, env)
		if err != nil {
			return types.Null, err
		}
		if len(rel.Cols) != 1 {
			return types.Null, fmt.Errorf("sql: scalar subquery must return one column, got %d", len(rel.Cols))
		}
		switch len(rel.Rows) {
		case 0:
			return types.Null, nil
		case 1:
			return rel.Rows[0][0], nil
		}
		return types.Null, fmt.Errorf("sql: scalar subquery returned %d rows", len(rel.Rows))

	case *ast.Cast:
		v, err := ctx.EvalExpr(e.Expr, env)
		if err != nil {
			return types.Null, err
		}
		return types.Coerce(v, e.Type)

	case *ast.FuncCall:
		fn, ok := ctx.Funcs[strings.ToLower(e.Name)]
		if !ok {
			return types.Null, fmt.Errorf("sql: unknown function %s", e.Name)
		}
		// The arguments go on the context's stack, so that a call per row
		// allocates nothing; a call nested in an argument stacks above.
		base := len(ctx.args)
		for _, a := range e.Args {
			v, err := ctx.EvalExpr(a, env)
			if err != nil {
				ctx.args = ctx.args[:base]
				return types.Null, err
			}
			ctx.args = append(ctx.args, v)
		}
		v, err := fn(ctx.args[base:len(ctx.args):len(ctx.args)])
		ctx.args = ctx.args[:base]
		return v, err

	case *ast.Case:
		return ctx.evalCase(e, env)

	case *ast.Aggregate:
		if ctx.aggValues != nil {
			if v, ok := ctx.aggValues[e]; ok {
				return v, nil
			}
		}
		return types.Null, fmt.Errorf("sql: aggregate %s used outside of an aggregating query", e.Func)
	}
	return types.Null, fmt.Errorf("sql: cannot evaluate %T", e)
}

// EvalPredicate evaluates a WHERE/ON/HAVING condition to a Tristate.
func (ctx *Context) EvalPredicate(e ast.Expr, env *Env) (types.Tristate, error) {
	v, err := ctx.EvalExpr(e, env)
	if err != nil {
		return types.Unknown, err
	}
	return types.Truth(v), nil
}

func (ctx *Context) evalBinary(e *ast.Binary, env *Env) (types.Value, error) {
	switch e.Op {
	case "AND":
		l, err := ctx.EvalPredicate(e.Left, env)
		if err != nil {
			return types.Null, err
		}
		if l == types.False {
			return types.NewBool(false), nil
		}
		r, err := ctx.EvalPredicate(e.Right, env)
		if err != nil {
			return types.Null, err
		}
		return tristateValue(l.And(r)), nil
	case "OR":
		l, err := ctx.EvalPredicate(e.Left, env)
		if err != nil {
			return types.Null, err
		}
		if l == types.True {
			return types.NewBool(true), nil
		}
		r, err := ctx.EvalPredicate(e.Right, env)
		if err != nil {
			return types.Null, err
		}
		return tristateValue(l.Or(r)), nil
	}
	l, err := ctx.EvalExpr(e.Left, env)
	if err != nil {
		return types.Null, err
	}
	r, err := ctx.EvalExpr(e.Right, env)
	if err != nil {
		return types.Null, err
	}
	switch e.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		t, err := types.CompareOp(e.Op, l, r)
		if err != nil {
			return types.Null, err
		}
		return tristateValue(t), nil
	default:
		return types.Arith(e.Op, l, r)
	}
}

func (ctx *Context) evalInList(e *ast.InList, env *Env) (types.Value, error) {
	v, err := ctx.EvalExpr(e.Expr, env)
	if err != nil {
		return types.Null, err
	}
	if v.IsNull() {
		return types.Null, nil
	}
	sawNull := false
	for _, item := range e.Items {
		iv, err := ctx.EvalExpr(item, env)
		if err != nil {
			return types.Null, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		t, err := types.CompareOp("=", v, iv)
		if err != nil {
			continue // incomparable kinds never match
		}
		if t == types.True {
			return types.NewBool(!e.Not), nil
		}
	}
	if sawNull {
		return types.Null, nil
	}
	return types.NewBool(e.Not), nil
}

// inSet is a set of values for O(1) membership probes: the result of an
// IN subquery — the one structure behind the per-row test and a key set
// of chooseAccess — or a long literal key list.
type inSet struct {
	keys    map[types.Value]struct{} // the members' keys (types.Value.Key)
	vals    []types.Value            // the distinct non-NULL members, in first-seen order
	sawNull bool
}

func newInSet(room int) *inSet {
	return &inSet{keys: make(map[types.Value]struct{}, room), vals: make([]types.Value, 0, room)}
}

// add puts v into the set and reports whether it is a new member, which
// a NULL never is.
func (s *inSet) add(v types.Value) bool {
	if v.IsNull() {
		s.sawNull = true
		return false
	}
	if s.has(v) {
		return false
	}
	s.keys[v.Key()] = struct{}{}
	s.vals = append(s.vals, v)
	return true
}

// has reports whether a member equals v; a NULL and a value no member can
// be compared with find nothing.
func (s *inSet) has(v types.Value) bool {
	_, ok := s.keys[v.Key()]
	return ok
}

// subquerySet evaluates an IN subquery to the set of its values. The set
// of a subquery that read no outer column holds for every row and is
// cached until a CTE is rebound.
func (ctx *Context) subquerySet(sel *ast.Select, env *Env) (*inSet, error) {
	if set, ok := ctx.inSetCache[sel]; ok {
		return set, nil
	}
	rel, err := ctx.evalSubquery(sel, env)
	if err != nil {
		return nil, err
	}
	if len(rel.Cols) != 1 {
		return nil, fmt.Errorf("sql: IN subquery must return one column, got %d", len(rel.Cols))
	}
	set := newInSet(len(rel.Rows))
	for _, row := range rel.Rows {
		set.add(row[0])
	}
	// evalSubquery has cached the relation if and only if it was
	// uncorrelated.
	if _, ok := ctx.SubqueryCache[sel]; ok {
		if ctx.inSetCache == nil {
			ctx.inSetCache = map[*ast.Select]*inSet{}
		}
		ctx.inSetCache[sel] = set
	}
	return set, nil
}

func (ctx *Context) evalInSubquery(e *ast.InSubquery, env *Env) (types.Value, error) {
	v, err := ctx.EvalExpr(e.Expr, env)
	if err != nil {
		return types.Null, err
	}
	set, err := ctx.subquerySet(e.Select, env)
	if err != nil {
		return types.Null, err
	}
	if v.IsNull() {
		return types.Null, nil
	}
	if set.has(v) {
		return types.NewBool(!e.Not), nil
	}
	if set.sawNull {
		return types.Null, nil
	}
	return types.NewBool(e.Not), nil
}

func (ctx *Context) evalCase(e *ast.Case, env *Env) (types.Value, error) {
	if e.Operand != nil {
		op, err := ctx.EvalExpr(e.Operand, env)
		if err != nil {
			return types.Null, err
		}
		for _, w := range e.Whens {
			wv, err := ctx.EvalExpr(w.Cond, env)
			if err != nil {
				return types.Null, err
			}
			if op.IsNull() || wv.IsNull() {
				continue
			}
			t, err := types.CompareOp("=", op, wv)
			if err != nil {
				continue
			}
			if t == types.True {
				return ctx.EvalExpr(w.Result, env)
			}
		}
	} else {
		for _, w := range e.Whens {
			t, err := ctx.EvalPredicate(w.Cond, env)
			if err != nil {
				return types.Null, err
			}
			if t == types.True {
				return ctx.EvalExpr(w.Result, env)
			}
		}
	}
	if e.Else != nil {
		return ctx.EvalExpr(e.Else, env)
	}
	return types.Null, nil
}

// evalSubquery evaluates a nested select with outer-scope correlation,
// consulting and maintaining the uncorrelated-subquery cache.
func (ctx *Context) evalSubquery(sel *ast.Select, outer *Env) (*Relation, error) {
	if rel, ok := ctx.SubqueryCache[sel]; ok {
		return rel, nil
	}
	touched := false
	barrier := &Env{parent: outer, touched: &touched}
	rel, err := ctx.EvalSelect(sel, barrier)
	if err != nil {
		return nil, err
	}
	if !touched {
		if ctx.SubqueryCache == nil {
			ctx.SubqueryCache = map[*ast.Select]*Relation{}
		}
		ctx.SubqueryCache[sel] = rel
	}
	return rel, nil
}

func tristateValue(t types.Tristate) types.Value {
	switch t {
	case types.True:
		return types.NewBool(true)
	case types.False:
		return types.NewBool(false)
	}
	return types.Null
}

// likeMatch implements SQL LIKE with % (any run) and _ (single char),
// case-sensitive, over bytes.
func likeMatch(pattern, s string) bool {
	// Iterative two-pointer algorithm with backtracking on '%'.
	pi, si := 0, 0
	star, ss := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			pi++
			si++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			ss = si
			pi++
		case star >= 0:
			pi = star + 1
			ss++
			si = ss
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}
