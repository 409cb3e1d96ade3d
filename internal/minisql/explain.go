package minisql

import (
	"fmt"
	"strings"

	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/exec"
	"pdmtune/internal/minisql/types"
)

// explain returns the plan of a statement without executing it. The plan
// is not described here: the executor itself evaluates the statement
// with Context.Plan set — taking every access-path and join decision as
// it would, reading no row — and this file only lays the recorded tree
// out as indented lines. A write is planned by the gathering half of
// UPDATE / DELETE; no latch is taken and nothing is mutated. The plan is
// taken at the epoch a read would pin, as key sets derived from an
// index's keys are (exec.Context.chooseAccess).
func (s *Session) explain(stmt ast.Statement, params []Value) (*Result, error) {
	root := &exec.PlanNode{}
	ctx := s.newContext(params, s.db.Epoch())
	ctx.Plan = root
	write := func(name string, where ast.Expr) error {
		table, ok := s.db.store.Table(name)
		if !ok {
			return fmt.Errorf("sql: no such table %s", name)
		}
		_, err := ctx.MatchIDs(table, where)
		return err
	}
	var err error
	switch st := stmt.(type) {
	case *ast.Select:
		_, err = ctx.EvalSelect(st, nil)
	case *ast.Insert:
		root.Text = fmt.Sprintf("INSERT INTO %s (%d row literals)", st.Table, len(st.Rows))
		if st.Select != nil {
			_, err = ctx.EvalSelect(st.Select, nil)
		}
	case *ast.Update:
		root.Text = "UPDATE " + st.Table
		err = write(st.Table, st.Where)
	case *ast.Delete:
		root.Text = "DELETE FROM " + st.Table
		err = write(st.Table, st.Where)
	default:
		root.Text = stmt.String()
	}
	if err != nil {
		return nil, err
	}
	res := &Result{Cols: []string{"plan"}}
	var layout func(n *exec.PlanNode, depth int)
	layout = func(n *exec.PlanNode, depth int) {
		if n.Text != "" {
			res.Rows = append(res.Rows, []Value{types.NewText(strings.Repeat("  ", depth) + n.Text)})
			depth++
		}
		for _, kid := range n.Kids {
			layout(kid, depth)
		}
	}
	layout(root, 0)
	return res, nil
}
