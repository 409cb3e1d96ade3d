package core

import (
	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/exec"
	"pdmtune/internal/minisql/storage"
)

// Client-side rule evaluation: the row-condition filtering of the late
// strategy and the tree conditions (∀rows, tree aggregates) no
// navigational query can carry (Section 4.1). The paper's client keeps
// its rules translated "only once"; this client keeps them compiled once
// as well, in a table beside the statement table (statement.go): every
// client-side rule lookup goes through predicate.

// predKey identifies one compiled predicate. The user is fixed per
// client and the actions are always {action, access}.
type predKey struct {
	kind            Kind
	objType, action string
}

// predicate is one entry of the client's compiled rule table: the
// relevant rules and their disjunction, parsed with the user environment
// bound and its column references bound to positions in UnifiedCols. A
// disjunction that does not parse is kept as err and fails the first
// evaluation, as it would have failed the first row parsed for it.
type predicate struct {
	rules []Rule
	expr  ast.Expr
	bound *exec.Bound
	err   error
}

// predicate returns the compiled predicate of a (kind, object type,
// action), building it on first use.
func (c *Client) predicate(kind Kind, objType, action string) *predicate {
	k := predKey{kind: kind, objType: objType, action: action}
	if p, ok := c.predicates[k]; ok {
		return p
	}
	p := &predicate{rules: c.rules.Relevant(c.user.Name, []string{action, ActionAccess}, objType, kind)}
	if len(p.rules) > 0 {
		if p.expr, p.err = disjunction(p.rules, c.user); p.err == nil {
			// Tree conditions range over the unified recursion table.
			alias := objType
			if kind != KindRow {
				alias = RecTable
			}
			p.bound = exec.Bind(p.expr, unifiedColsFor(alias))
		}
	}
	c.predicates[k] = p
	return p
}

// permits evaluates a predicate against one unified row in place. A
// predicate without rules permits everything.
func (c *Client) permits(p *predicate, row storage.Row) (bool, error) {
	if len(p.rules) == 0 {
		return true, nil
	}
	if p.err != nil {
		return false, p.err
	}
	v, err := c.local.EvalBound(p.bound, row)
	if err != nil {
		return false, err
	}
	return boolValue(v), nil
}

// localRowPermitted evaluates the disjunction of the user's row
// conditions for an object type against a received unified row — the
// client-side ("late") rule evaluation the paper starts from.
func (c *Client) localRowPermitted(objType, action string, row storage.Row) (bool, error) {
	return c.permits(c.predicate(KindRow, objType, action), row)
}

// unifiedColsFor binds the unified columns under an object type's alias
// so rule predicates like assy.make_or_buy or link.strc_opt resolve.
func unifiedColsFor(objType string) []exec.ColMeta {
	cols := make([]exec.ColMeta, len(UnifiedCols))
	for i, name := range UnifiedCols {
		cols[i] = exec.ColMeta{Table: objType, Name: name}
	}
	return cols
}

// clientTreeConditions evaluates ∀rows and tree-aggregate rules on a
// fetched tree (late/early navigational strategies). It reports whether
// the tree survives.
func (c *Client) clientTreeConditions(tree *Tree, action string) (bool, error) {
	// ∀rows: every node must meet the row condition, evaluated on each
	// node re-projected into one reused row.
	forall := c.predicate(KindForAllRows, TreeObjType, action)
	if len(forall.rules) > 0 {
		if forall.err != nil {
			return false, forall.err
		}
		row := make(storage.Row, len(UnifiedCols))
		holds := true
		var evalErr error
		tree.Walk(func(n *Node) {
			if !holds || evalErr != nil {
				return
			}
			fillUnifiedRow(row, n)
			holds, evalErr = c.permits(forall, row)
		})
		if evalErr != nil {
			return false, evalErr
		}
		if !holds {
			return false, nil
		}
	}

	// Tree aggregates: bind the fetched tree as the recursion table and
	// evaluate the condition over it.
	aggs := c.predicate(KindTreeAggregate, TreeObjType, action)
	if len(aggs.rules) > 0 {
		if aggs.err != nil {
			return false, aggs.err
		}
		ok, err := c.evalTreeAggregatesLocally(tree, aggs.expr)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// evalTreeAggregatesLocally binds the fetched nodes as rtbl, the
// relation the aggregate conditions range over, and evaluates their
// disjunction against it.
func (c *Client) evalTreeAggregatesLocally(tree *Tree, pred ast.Expr) (bool, error) {
	rtbl := &exec.Relation{Cols: unifiedColsFor(RecTable)}
	tree.Walk(func(n *Node) {
		rtbl.Rows = append(rtbl.Rows, nodeToUnifiedRow(n))
	})
	ctx := &exec.Context{
		Funcs:         c.local.Funcs,
		CTEs:          map[string]*exec.Relation{RecTable: rtbl},
		SubqueryCache: map[*ast.Select]*exec.Relation{},
	}
	v, err := ctx.EvalExpr(pred, nil)
	if err != nil {
		return false, err
	}
	return boolValue(v), nil
}
