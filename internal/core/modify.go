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
	return m.applyRowConditions(ast.Cores(sel.Body), action)
}

// ModifyRecursive applies the full algorithm of Section 5.5 to a
// recursive query: (A) ∀rows conditions, (B) tree-aggregate conditions,
// (C) ∃structure conditions, (D) ordinary row conditions.
func (m *Modifier) ModifyRecursive(sel *ast.Select, action string) error {
	if sel.With == nil {
		return fmt.Errorf("core: recursive modification requires a WITH query")
	}
	outer := ast.Cores(sel.Body)
	var inner []*ast.SelectCore
	for i := range sel.With.CTEs {
		inner = append(inner, ast.Cores(sel.With.CTEs[i].Select.Body)...)
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

// fromTables calls fn for every base table in a FROM tree, derived
// tables' FROM trees included; expressions (ON conditions, the
// predicates of a derived table) are not FROM entries.
func fromTables(ref ast.TableRef, fn func(*ast.BaseTable)) {
	ast.Inspect(ref, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BaseTable:
			fn(n)
		case ast.Expr:
			return false
		}
		return true
	})
}

// coreObjectTypes lists the base tables referenced by the cores' FROM
// clauses (excluding the recursion table), in first-seen order.
func coreObjectTypes(cores []*ast.SelectCore) []string {
	seen := map[string]bool{RecTable: true}
	var out []string
	for _, c := range cores {
		fromTables(c.From, func(bt *ast.BaseTable) {
			if name := strings.ToLower(bt.Name); !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		})
	}
	return out
}

// fromReferencesTable reports whether a FROM tree references the table,
// by name or by alias.
func fromReferencesTable(ref ast.TableRef, table string) bool {
	found := false
	fromTables(ref, func(bt *ast.BaseTable) {
		found = found || strings.EqualFold(bt.Name, table) || strings.EqualFold(bt.Alias, table)
	})
	return found
}

// clone deep-copies an expression so the same rule predicate can be
// appended to several SELECT cores without sharing mutable nodes.
func clone(e ast.Expr) ast.Expr {
	return ast.Rewrite(e, func(x ast.Expr) ast.Expr { return x })
}

// substituteColumnParam replaces every reference to table.column,
// subqueries included, with a `?` placeholder, counting them in *count —
// what turns a correlated ∃structure condition into a standalone probe
// that one text serves for every probed object.
func substituteColumnParam(e ast.Expr, table, column string, count *int) ast.Expr {
	return ast.Rewrite(e, func(x ast.Expr) ast.Expr {
		if ref, ok := x.(*ast.ColumnRef); ok && strings.EqualFold(ref.Table, table) && strings.EqualFold(ref.Column, column) {
			*count++
			return &ast.Param{Index: *count - 1}
		}
		return x
	})
}

func intValue(v int64) types.Value { return types.NewInt(v) }
