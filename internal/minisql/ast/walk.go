package ast

import "fmt"

// Node is anything Inspect traverses: an Expr, a TableRef, a SelectBody
// or a *Select.
type Node interface {
	String() string
}

// Inspect traverses the tree below n depth-first, in the order the parts
// are written: it calls fn(n) and, unless fn returns false, does the same
// for each child of n. It is the one enumeration of what a node
// contains; everything that searches or collects over a statement (the
// tables a query reads, the aggregates of a SELECT, the columns a clause
// mentions) is a visitor over it and chooses its scope by what it
// prunes — returning false for a *Select keeps a visitor out of
// subqueries, returning false for an Expr keeps it in the FROM tree.
func Inspect(n Node, fn func(Node) bool) {
	if n == nil || !fn(n) {
		return
	}
	exprs := func(list []Expr) {
		for _, e := range list {
			Inspect(e, fn)
		}
	}
	switch n := n.(type) {
	case *Select:
		if n.With != nil {
			for i := range n.With.CTEs {
				Inspect(n.With.CTEs[i].Select, fn)
			}
		}
		Inspect(n.Body, fn)
		for _, o := range n.OrderBy {
			Inspect(o.Expr, fn)
		}
		Inspect(n.Limit, fn)
		Inspect(n.Offset, fn)
	case *SetOp:
		Inspect(n.Left, fn)
		Inspect(n.Right, fn)
	case *SelectCore:
		for _, it := range n.Items {
			Inspect(it.Expr, fn)
		}
		Inspect(n.From, fn)
		Inspect(n.Where, fn)
		exprs(n.GroupBy)
		Inspect(n.Having, fn)

	case *BaseTable:
	case *Join:
		Inspect(n.Left, fn)
		Inspect(n.Right, fn)
		Inspect(n.On, fn)
	case *CrossList:
		for _, it := range n.Items {
			Inspect(it, fn)
		}
	case *SubqueryTable:
		Inspect(n.Select, fn)

	case *Literal, *Param, *ColumnRef:
	case *Binary:
		Inspect(n.Left, fn)
		Inspect(n.Right, fn)
	case *Unary:
		Inspect(n.Expr, fn)
	case *IsNull:
		Inspect(n.Expr, fn)
	case *Between:
		Inspect(n.Expr, fn)
		Inspect(n.Lo, fn)
		Inspect(n.Hi, fn)
	case *Like:
		Inspect(n.Expr, fn)
		Inspect(n.Pattern, fn)
	case *InList:
		Inspect(n.Expr, fn)
		exprs(n.Items)
	case *InSubquery:
		Inspect(n.Expr, fn)
		Inspect(n.Select, fn)
	case *Exists:
		Inspect(n.Select, fn)
	case *ScalarSubquery:
		Inspect(n.Select, fn)
	case *Cast:
		Inspect(n.Expr, fn)
	case *FuncCall:
		exprs(n.Args)
	case *Aggregate:
		Inspect(n.Arg, fn)
	case *Case:
		Inspect(n.Operand, fn)
		for _, w := range n.Whens {
			Inspect(w.Cond, fn)
			Inspect(w.Result, fn)
		}
		Inspect(n.Else, fn)
	default:
		panic(fmt.Sprintf("ast: Inspect does not cover %T", n))
	}
}

// CoreRefs calls fn for each direct column reference of a SELECT core —
// those of its items, WHERE, GROUP BY and HAVING, aggregate arguments
// included — in the order Inspect visits them, until fn returns false.
// The references of its FROM clause and of its subqueries are not its
// own: other scopes evaluate them.
func CoreRefs(core *SelectCore, fn func(*ColumnRef) bool) {
	more := true
	Inspect(core, func(n Node) bool {
		switch n := n.(type) {
		case *Select, TableRef:
			return false
		case *ColumnRef:
			more = fn(n)
		}
		return more
	})
}

// Rewrite rebuilds an expression top-down: where fn returns a node other
// than the one it was given, that node takes its place as it is;
// everywhere else the node is copied and its children rewritten, nested
// selects included. With an fn that changes nothing the result is a deep
// copy that shares no mutable node with e.
func Rewrite(e Expr, fn func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	if r := fn(e); r != e {
		return r
	}
	re := func(x Expr) Expr { return Rewrite(x, fn) }
	list := func(in []Expr) []Expr {
		if in == nil {
			return nil
		}
		out := make([]Expr, len(in))
		for i, x := range in {
			out[i] = re(x)
		}
		return out
	}
	switch e := e.(type) {
	case *Literal:
		c := *e
		return &c
	case *Param:
		c := *e
		return &c
	case *ColumnRef:
		c := *e
		return &c
	case *Binary:
		return &Binary{Op: e.Op, Left: re(e.Left), Right: re(e.Right)}
	case *Unary:
		return &Unary{Op: e.Op, Expr: re(e.Expr)}
	case *IsNull:
		return &IsNull{Expr: re(e.Expr), Not: e.Not}
	case *Between:
		return &Between{Expr: re(e.Expr), Lo: re(e.Lo), Hi: re(e.Hi), Not: e.Not}
	case *Like:
		return &Like{Expr: re(e.Expr), Pattern: re(e.Pattern), Not: e.Not}
	case *InList:
		return &InList{Expr: re(e.Expr), Items: list(e.Items), Not: e.Not}
	case *InSubquery:
		return &InSubquery{Expr: re(e.Expr), Select: rewriteSelect(e.Select, fn), Not: e.Not}
	case *Exists:
		return &Exists{Select: rewriteSelect(e.Select, fn), Not: e.Not}
	case *ScalarSubquery:
		return &ScalarSubquery{Select: rewriteSelect(e.Select, fn)}
	case *Cast:
		return &Cast{Expr: re(e.Expr), Type: e.Type}
	case *FuncCall:
		return &FuncCall{Name: e.Name, Args: list(e.Args)}
	case *Aggregate:
		return &Aggregate{Func: e.Func, Star: e.Star, Distinct: e.Distinct, Arg: re(e.Arg)}
	case *Case:
		c := &Case{Operand: re(e.Operand), Else: re(e.Else)}
		for _, w := range e.Whens {
			c.Whens = append(c.Whens, When{Cond: re(w.Cond), Result: re(w.Result)})
		}
		return c
	}
	panic(fmt.Sprintf("ast: Rewrite does not cover %T", e))
}

// rewriteSelect is Rewrite for the expressions of a nested select.
func rewriteSelect(sel *Select, fn func(Expr) Expr) *Select {
	re := func(x Expr) Expr { return Rewrite(x, fn) }
	out := &Select{Body: rewriteBody(sel.Body, fn), Limit: re(sel.Limit), Offset: re(sel.Offset)}
	if sel.With != nil {
		out.With = &With{Recursive: sel.With.Recursive}
		for _, cte := range sel.With.CTEs {
			out.With.CTEs = append(out.With.CTEs, CTE{
				Name: cte.Name, Cols: cte.Cols, Select: rewriteSelect(cte.Select, fn)})
		}
	}
	for _, o := range sel.OrderBy {
		out.OrderBy = append(out.OrderBy, OrderItem{Expr: re(o.Expr), Position: o.Position, Desc: o.Desc})
	}
	return out
}

func rewriteBody(body SelectBody, fn func(Expr) Expr) SelectBody {
	re := func(x Expr) Expr { return Rewrite(x, fn) }
	switch b := body.(type) {
	case *SetOp:
		return &SetOp{Op: b.Op, Left: rewriteBody(b.Left, fn), Right: rewriteBody(b.Right, fn)}
	case *SelectCore:
		c := &SelectCore{Distinct: b.Distinct, Where: re(b.Where), Having: re(b.Having)}
		for _, it := range b.Items {
			it.Expr = re(it.Expr)
			c.Items = append(c.Items, it)
		}
		if b.From != nil {
			c.From = rewriteFrom(b.From, fn)
		}
		for _, g := range b.GroupBy {
			c.GroupBy = append(c.GroupBy, re(g))
		}
		return c
	}
	panic(fmt.Sprintf("ast: Rewrite does not cover %T", body))
}

func rewriteFrom(ref TableRef, fn func(Expr) Expr) TableRef {
	switch r := ref.(type) {
	case *BaseTable:
		c := *r
		return &c
	case *Join:
		return &Join{Type: r.Type, Left: rewriteFrom(r.Left, fn), Right: rewriteFrom(r.Right, fn), On: Rewrite(r.On, fn)}
	case *CrossList:
		c := &CrossList{}
		for _, it := range r.Items {
			c.Items = append(c.Items, rewriteFrom(it, fn))
		}
		return c
	case *SubqueryTable:
		return &SubqueryTable{Select: rewriteSelect(r.Select, fn), Alias: r.Alias}
	}
	panic(fmt.Sprintf("ast: Rewrite does not cover %T", ref))
}

// Cores lists the SELECT cores of a set-operation tree, left to right.
func Cores(body SelectBody) []*SelectCore {
	var out []*SelectCore
	Inspect(body, func(n Node) bool {
		if c, ok := n.(*SelectCore); ok {
			out = append(out, c)
			return false
		}
		return true
	})
	return out
}
