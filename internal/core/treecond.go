package core

import (
	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/exec"
	"pdmtune/internal/minisql/storage"
)

// Client-side rule evaluation: the row-condition filtering of the late
// strategy and the tree conditions (∀rows, tree aggregates) no
// navigational query can carry (Section 4.1).

// localRowPermitted evaluates the disjunction of the user's row
// conditions for an object type against a received unified row — the
// client-side ("late") rule evaluation the paper starts from.
func (c *Client) localRowPermitted(objType string, actions []string, row storage.Row) (bool, error) {
	rules := c.rules.Relevant(c.user.Name, actions, objType, KindRow)
	if len(rules) == 0 {
		return true, nil
	}
	pred, err := disjunction(rules, c.user)
	if err != nil {
		return false, err
	}
	env := exec.NewEnv(unifiedColsFor(objType), row, nil)
	v, err := c.local.EvalExpr(pred, env)
	if err != nil {
		return false, err
	}
	return boolValue(v), nil
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
	actions := []string{action, ActionAccess}

	// ∀rows: every node must meet the row condition.
	forall := c.rules.Relevant(c.user.Name, actions, TreeObjType, KindForAllRows)
	if len(forall) > 0 {
		pred, err := disjunction(forall, c.user)
		if err != nil {
			return false, err
		}
		holds := true
		var evalErr error
		tree.Walk(func(n *Node) {
			if !holds || evalErr != nil {
				return
			}
			env := exec.NewEnv(unifiedColsFor(RecTable), nodeToUnifiedRow(n), nil)
			v, err := c.local.EvalExpr(pred, env)
			if err != nil {
				evalErr = err
				return
			}
			if !boolValue(v) {
				holds = false
			}
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
	aggs := c.rules.Relevant(c.user.Name, actions, TreeObjType, KindTreeAggregate)
	if len(aggs) > 0 {
		ok, err := c.evalTreeAggregatesLocally(tree, aggs)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// evalTreeAggregatesLocally binds the fetched nodes as rtbl, the
// relation the aggregate conditions range over, and evaluates their
// disjunction against it.
func (c *Client) evalTreeAggregatesLocally(tree *Tree, rules []Rule) (bool, error) {
	rtbl := &exec.Relation{Cols: unifiedColsFor(RecTable)}
	tree.Walk(func(n *Node) {
		rtbl.Rows = append(rtbl.Rows, nodeToUnifiedRow(n))
	})
	pred, err := disjunction(rules, c.user)
	if err != nil {
		return false, err
	}
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
