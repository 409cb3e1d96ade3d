package core

import (
	"fmt"
	"strings"

	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/types"
)

// Modifier is the query modificator of Section 5.5: it rewrites
// generated queries so that access rules, structure options and
// effectivities are evaluated early, at the database server.
type Modifier struct {
	Rules *RuleTable
	User  UserContext
}

// TreeObjType is the object type ∀rows and tree-aggregate rules are
// registered under (the paper's example 2 uses "tree(assembly)").
const TreeObjType = "tree(assy)"

// ModifyNavigational applies step D — ordinary row conditions — to a
// navigational query (single-level expand or set-oriented query). Tree
// conditions cannot be evaluated within navigational queries
// (Section 4.1) and remain the client's burden.
func (m *Modifier) ModifyNavigational(sel *ast.Select, action string) error {
	return m.applyRowConditions(collectCores(sel.Body), action)
}

// ModifyRecursive applies the full algorithm of Section 5.5 to a
// recursive query: (A) ∀rows conditions, (B) tree-aggregate conditions,
// (C) ∃structure conditions, (D) ordinary row conditions.
func (m *Modifier) ModifyRecursive(sel *ast.Select, action string) error {
	if sel.With == nil {
		return fmt.Errorf("core: recursive modification requires a WITH query")
	}
	outer := collectCores(sel.Body)
	var inner []*ast.SelectCore
	for i := range sel.With.CTEs {
		inner = append(inner, collectCores(sel.With.CTEs[i].Select.Body)...)
	}
	actions := []string{action, ActionAccess}

	// A. ∀rows conditions: NOT EXISTS (SELECT * FROM rtbl WHERE NOT cond)
	// appended to all SELECTs outside the recursive part — the
	// "all-or-nothing" principle of Section 5.3.1.
	forall := m.Rules.Relevant(m.User.Name, actions, TreeObjType, KindForAllRows)
	if len(forall) > 0 {
		rowCond, err := disjunction(forall, m.User)
		if err != nil {
			return err
		}
		guard := &ast.Exists{
			Not: true,
			Select: &ast.Select{Body: &ast.SelectCore{
				Items: []ast.SelectItem{{Star: true}},
				From:  &ast.BaseTable{Name: RecTable},
				Where: &ast.Unary{Op: "NOT", Expr: rowCond},
			}},
		}
		for _, c := range outer {
			c.Where = ast.AndWhere(c.Where, guard)
		}
	}

	// B. Tree-aggregate conditions: appended verbatim to the outer
	// SELECTs (they already reference rtbl in a scalar subquery).
	aggs := m.Rules.Relevant(m.User.Name, actions, TreeObjType, KindTreeAggregate)
	if len(aggs) > 0 {
		pred, err := disjunction(aggs, m.User)
		if err != nil {
			return err
		}
		for _, c := range outer {
			c.Where = ast.AndWhere(c.Where, pred)
		}
	}

	// C. ∃structure conditions: grouped by object type O, appended to the
	// SELECT statements inside the recursive part which refer to O.
	for _, objType := range coreObjectTypes(inner) {
		rules := m.Rules.Relevant(m.User.Name, actions, objType, KindExistsStructure)
		if len(rules) == 0 {
			continue
		}
		pred, err := disjunction(rules, m.User)
		if err != nil {
			return err
		}
		for _, c := range inner {
			if fromReferencesTable(c.From, objType) {
				c.Where = ast.AndWhere(c.Where, pred)
			}
		}
	}

	// D. Ordinary row conditions, inside and outside the recursive part.
	return m.applyRowConditions(append(append([]*ast.SelectCore{}, inner...), outer...), action)
}

// applyRowConditions implements step D: for every object type occurring
// in the query, the disjunction of the user's row conditions is appended
// (with AND) to each SELECT referring to that type in its FROM clause.
func (m *Modifier) applyRowConditions(cores []*ast.SelectCore, action string) error {
	actions := []string{action, ActionAccess}
	for _, objType := range coreObjectTypes(cores) {
		rules := m.Rules.Relevant(m.User.Name, actions, objType, KindRow)
		if len(rules) == 0 {
			continue
		}
		pred, err := disjunction(rules, m.User)
		if err != nil {
			return err
		}
		for _, c := range cores {
			if fromReferencesTable(c.From, objType) {
				c.Where = ast.AndWhere(c.Where, clone(pred))
			}
		}
	}
	return nil
}

// collectCores flattens a set-operation tree into its SELECT cores.
func collectCores(body ast.SelectBody) []*ast.SelectCore {
	switch b := body.(type) {
	case *ast.SelectCore:
		return []*ast.SelectCore{b}
	case *ast.SetOp:
		return append(collectCores(b.Left), collectCores(b.Right)...)
	}
	return nil
}

// coreObjectTypes lists the base tables referenced by the cores' FROM
// clauses (excluding the recursion table), in first-seen order.
func coreObjectTypes(cores []*ast.SelectCore) []string {
	seen := map[string]bool{}
	var out []string
	var walk func(ref ast.TableRef)
	walk = func(ref ast.TableRef) {
		switch r := ref.(type) {
		case *ast.BaseTable:
			name := strings.ToLower(r.Name)
			if name == RecTable || seen[name] {
				return
			}
			seen[name] = true
			out = append(out, name)
		case *ast.Join:
			walk(r.Left)
			walk(r.Right)
		case *ast.CrossList:
			for _, it := range r.Items {
				walk(it)
			}
		case *ast.SubqueryTable:
			for _, c := range collectCores(r.Select.Body) {
				if c.From != nil {
					walk(c.From)
				}
			}
		}
	}
	for _, c := range cores {
		if c.From != nil {
			walk(c.From)
		}
	}
	return out
}

// fromReferencesTable reports whether a FROM tree references the table.
func fromReferencesTable(ref ast.TableRef, table string) bool {
	switch r := ref.(type) {
	case *ast.BaseTable:
		return strings.EqualFold(r.Name, table) ||
			(r.Alias != "" && strings.EqualFold(r.Alias, table))
	case *ast.Join:
		return fromReferencesTable(r.Left, table) || fromReferencesTable(r.Right, table)
	case *ast.CrossList:
		for _, it := range r.Items {
			if fromReferencesTable(it, table) {
				return true
			}
		}
	case *ast.SubqueryTable:
		for _, c := range collectCores(r.Select.Body) {
			if c.From != nil && fromReferencesTable(c.From, table) {
				return true
			}
		}
	}
	return false
}

// clone deep-copies an expression so the same rule predicate can be
// appended to several SELECT cores without sharing mutable nodes.
func clone(e ast.Expr) ast.Expr {
	switch e := e.(type) {
	case *ast.Literal:
		c := *e
		return &c
	case *ast.Param:
		c := *e
		return &c
	case *ast.ColumnRef:
		c := *e
		return &c
	case *ast.Binary:
		return &ast.Binary{Op: e.Op, Left: clone(e.Left), Right: clone(e.Right)}
	case *ast.Unary:
		return &ast.Unary{Op: e.Op, Expr: clone(e.Expr)}
	case *ast.IsNull:
		return &ast.IsNull{Expr: clone(e.Expr), Not: e.Not}
	case *ast.Between:
		return &ast.Between{Expr: clone(e.Expr), Lo: clone(e.Lo), Hi: clone(e.Hi), Not: e.Not}
	case *ast.Like:
		return &ast.Like{Expr: clone(e.Expr), Pattern: clone(e.Pattern), Not: e.Not}
	case *ast.InList:
		items := make([]ast.Expr, len(e.Items))
		for i, it := range e.Items {
			items[i] = clone(it)
		}
		return &ast.InList{Expr: clone(e.Expr), Items: items, Not: e.Not}
	case *ast.Cast:
		return &ast.Cast{Expr: clone(e.Expr), Type: e.Type}
	case *ast.FuncCall:
		args := make([]ast.Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = clone(a)
		}
		return &ast.FuncCall{Name: e.Name, Args: args}
	case *ast.Case:
		c := &ast.Case{}
		if e.Operand != nil {
			c.Operand = clone(e.Operand)
		}
		for _, w := range e.Whens {
			c.Whens = append(c.Whens, ast.When{Cond: clone(w.Cond), Result: clone(w.Result)})
		}
		if e.Else != nil {
			c.Else = clone(e.Else)
		}
		return c
	default:
		// Subquery-bearing expressions (Exists, InSubquery, ScalarSubquery,
		// Aggregate) are shared read-only: the executor never mutates them.
		return e
	}
}

// substituteColumnParam replaces every reference to table.column with a
// `?` placeholder, counting them in *count — what turns a correlated
// ∃structure condition into a standalone probe that one text serves
// for every probed object.
func substituteColumnParam(e ast.Expr, table, column string, count *int) ast.Expr {
	replace := func(x ast.Expr) ast.Expr { return substituteColumnParam(x, table, column, count) }
	switch e := e.(type) {
	case *ast.ColumnRef:
		if strings.EqualFold(e.Table, table) && strings.EqualFold(e.Column, column) {
			p := &ast.Param{Index: *count}
			*count++
			return p
		}
		return e
	case *ast.Binary:
		return &ast.Binary{Op: e.Op, Left: replace(e.Left), Right: replace(e.Right)}
	case *ast.Unary:
		return &ast.Unary{Op: e.Op, Expr: replace(e.Expr)}
	case *ast.IsNull:
		return &ast.IsNull{Expr: replace(e.Expr), Not: e.Not}
	case *ast.Between:
		return &ast.Between{Expr: replace(e.Expr), Lo: replace(e.Lo), Hi: replace(e.Hi), Not: e.Not}
	case *ast.Like:
		return &ast.Like{Expr: replace(e.Expr), Pattern: replace(e.Pattern), Not: e.Not}
	case *ast.InList:
		items := make([]ast.Expr, len(e.Items))
		for i, it := range e.Items {
			items[i] = replace(it)
		}
		return &ast.InList{Expr: replace(e.Expr), Items: items, Not: e.Not}
	case *ast.Cast:
		return &ast.Cast{Expr: replace(e.Expr), Type: e.Type}
	case *ast.FuncCall:
		args := make([]ast.Expr, len(e.Args))
		for i, a := range e.Args {
			args[i] = replace(a)
		}
		return &ast.FuncCall{Name: e.Name, Args: args}
	case *ast.Exists:
		return &ast.Exists{Not: e.Not, Select: substituteInSelect(e.Select, table, column, count)}
	case *ast.InSubquery:
		return &ast.InSubquery{Expr: replace(e.Expr), Not: e.Not, Select: substituteInSelect(e.Select, table, column, count)}
	case *ast.ScalarSubquery:
		return &ast.ScalarSubquery{Select: substituteInSelect(e.Select, table, column, count)}
	}
	return e
}

// substituteInSelect rewrites WHERE clauses of a (sub)query — sufficient
// for probe generation, where the correlation always sits in a WHERE.
func substituteInSelect(sel *ast.Select, table, column string, count *int) *ast.Select {
	out := *sel
	cores := collectCores(out.Body)
	for _, c := range cores {
		if c.Where != nil {
			c.Where = substituteColumnParam(c.Where, table, column, count)
		}
	}
	return &out
}

func intValue(v int64) types.Value { return types.NewInt(v) }
