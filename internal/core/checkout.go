package core

import (
	"context"
	"fmt"

	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
)

// CheckOutResult reports a check-out/check-in attempt.
type CheckOutResult struct {
	// Granted is false when a rule (typically the ∀rows "all nodes must
	// be checked-in" condition of paper example 2) denied the action.
	Granted bool
	// Updated counts the objects whose checked-out flag changed.
	Updated int
	// Metrics is the WAN cost of the whole action.
	Metrics netsim.Metrics
}

// ConflictError reports a first-wins write race lost: a concurrent
// check-out grabbed part of the subtree between this client's rule
// check and its flag updates. The loser's partial updates have been
// rolled back (procedure path) or compensated (client-driven path) —
// the subtree is left untouched by the loser, and retrying after the
// winner checks in is the caller's decision.
type ConflictError struct {
	// Action names the losing action ("check-out").
	Action string
	// Root is the subtree root the action targeted.
	Root int64
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("pdm: %s of %d lost a concurrent write race (first wins); retry after the winner checks in", e.Action, e.Root)
}

// CheckOutRule returns the paper's example 2 as a rule: "permits every
// user to check-out an entire subtree if all nodes in this subtree are
// checked-in" (∀n ∈ tree(assembly): n.checkedout ≠ TRUE).
func CheckOutRule() Rule {
	return Rule{
		User: Wildcard, Action: ActionCheck, ObjType: TreeObjType,
		Kind: KindForAllRows, Cond: "checkedout <> TRUE",
	}
}

// CheckOut retrieves the structure under root and marks every returned
// object as checked out by the user. As Section 6 observes, this action
// "cannot be represented in one single query": even with the recursive
// strategy, the flag updates are separate WAN communications.
func (c *Client) CheckOut(ctx context.Context, root int64) (*CheckOutResult, error) {
	before := c.start()
	c.countAction(ActionCheck, root, true)
	res, err := c.multiLevelExpand(ctx, root, ActionCheck)
	if err != nil {
		return nil, err
	}
	out := &CheckOutResult{}
	if res.Tree == nil || res.Tree.Root == nil {
		out.Metrics = c.delta(before)
		return out, nil // denied by a tree condition
	}
	out.Granted = true
	updated, err := c.setCheckedOut(ctx, res.Tree, true)
	if err != nil {
		return nil, err
	}
	// The flags just flipped under every cached entry covering this
	// subtree — retire them locally, without a round trip.
	c.invalidateTree(res.Tree)
	// First-wins: the conditional updates flip only still-checked-in
	// rows, so a shortfall means a concurrent check-out won part of the
	// subtree between our rule check and our updates. Compensate by
	// releasing the rows we did grab and report the lost race.
	if expected := checkableNodes(res.Tree); updated < expected {
		if _, err := c.setCheckedOut(ctx, res.Tree, false); err != nil {
			return nil, fmt.Errorf("pdm: compensating lost check-out race: %w", err)
		}
		if m := c.primaryMeter(); m != nil {
			m.Add(netsim.Metrics{WriteConflicts: 1})
		}
		out.Granted = false
		out.Updated = 0
		out.Metrics = c.delta(before)
		return out, &ConflictError{Action: "check-out", Root: root}
	}
	out.Updated = updated
	out.Metrics = c.delta(before)
	return out, nil
}

// checkableNodes counts the tree nodes that live in an object table and
// therefore carry a checked-out flag.
func checkableNodes(tree *Tree) int {
	n := 0
	tree.Walk(func(node *Node) {
		if node.Type == "assy" || node.Type == "comp" {
			n++
		}
	})
	return n
}

// CheckIn releases a previously checked-out subtree owned by the user.
func (c *Client) CheckIn(ctx context.Context, root int64) (*CheckOutResult, error) {
	before := c.start()
	c.countAction(ActionCheck+"-in", root, true)
	res, err := c.multiLevelExpand(ctx, root, ActionCheck+"-in")
	if err != nil {
		return nil, err
	}
	out := &CheckOutResult{Granted: true}
	if res.Tree != nil && res.Tree.Root != nil {
		updated, err := c.setCheckedOut(ctx, res.Tree, false)
		if err != nil {
			return nil, err
		}
		c.invalidateTree(res.Tree)
		out.Updated = updated
	}
	out.Metrics = c.delta(before)
	return out, nil
}

// checkedOutListSQL is the flag update of one object table over an id
// list. Both directions are conditional — a check-out flips only
// still-checked-in rows, a check-in only the user's own — which is what
// makes concurrent check-outs first-wins.
func checkedOutListSQL(table, user string, ids []int64, out bool) string {
	if out {
		return fmt.Sprintf(
			"UPDATE %s SET checkedout = TRUE, checkedout_by = %s WHERE obid IN (%s) AND checkedout <> TRUE",
			table, sqlText(user), idList(ids))
	}
	return fmt.Sprintf(
		"UPDATE %s SET checkedout = FALSE, checkedout_by = NULL WHERE obid IN (%s) AND checkedout_by = %s",
		table, idList(ids), sqlText(user))
}

// setCheckedOut ships the UPDATE statements flipping the flag for every
// node in the tree — one WAN round trip per object table, or a single
// batch round trip for the whole modify when batching is enabled. Node
// types without an object table are skipped.
func (c *Client) setCheckedOut(ctx context.Context, tree *Tree, out bool) (int, error) {
	ids := map[string][]int64{}
	tree.Walk(func(n *Node) {
		ids[n.Type] = append(ids[n.Type], n.ObID)
	})
	var reqs []*wire.Request
	for _, table := range []string{"assy", "comp"} {
		if len(ids[table]) > 0 {
			reqs = append(reqs, &wire.Request{SQL: checkedOutListSQL(table, c.user.Name, ids[table], out)})
		}
	}
	updated := 0
	// A fenced re-issue after failover runs the whole op again on the
	// new primary.
	err := c.withWrite(func(w *wire.Client) error {
		updated = 0
		if c.knobs.Batching && len(reqs) > 1 {
			resps, err := w.ExecBatch(ctx, reqs)
			for _, resp := range resps {
				updated += resp.RowsAffected
			}
			return err
		}
		for _, req := range reqs {
			resp, err := w.Do(ctx, req)
			if err != nil {
				return err
			}
			updated += resp.RowsAffected
		}
		return nil
	})
	return updated, err
}

// CheckOutViaProcedure performs the whole check-out in a single WAN
// round trip by calling a stored procedure at the server — the
// "application-specific functionality ... installed at the database
// server" remedy of Section 6.
func (c *Client) CheckOutViaProcedure(ctx context.Context, root int64) (*CheckOutResult, error) {
	return c.callCheckProc(ctx, "pdm_check_out", root)
}

// CheckInViaProcedure is the single-round-trip check-in.
func (c *Client) CheckInViaProcedure(ctx context.Context, root int64) (*CheckOutResult, error) {
	return c.callCheckProc(ctx, "pdm_check_in", root)
}

func (c *Client) callCheckProc(ctx context.Context, proc string, root int64) (*CheckOutResult, error) {
	before := c.start()
	c.countAction(proc, root, true)
	call := fmt.Sprintf("CALL %s(%d, %s, %s, %d, %d)",
		proc, root, sqlText(c.user.Name), sqlText(c.user.Options), c.user.EffFrom, c.user.EffTo)
	var resp *wire.Response
	err := c.withWrite(func(w *wire.Client) error {
		var err error
		resp, err = w.Exec(ctx, call)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(resp.Rows) != 1 || len(resp.Rows[0]) != 3 {
		return nil, fmt.Errorf("core: %s answered %d rows of %d columns, want one row of (granted, updated, conflict)", proc, len(resp.Rows), len(resp.Cols))
	}
	row := resp.Rows[0]
	out := &CheckOutResult{
		Metrics: c.delta(before),
		Granted: types.Truth(row[0]) == types.True,
		Updated: int(row[1].Int()),
	}
	// The procedure modified a subtree the client never fetched: retire
	// the root's entries locally; deeper cached entries are caught by
	// the next validate-on-use exchange (the server bumped their nodes).
	if out.Granted && out.Updated > 0 {
		c.invalidateCache([]int64{root})
	}
	if types.Truth(row[2]) == types.True {
		return out, &ConflictError{Action: "check-out", Root: root}
	}
	return out, nil
}

// RegisterProcedures installs the server-side stored procedures
// pdm_check_out, pdm_check_in and pdm_eco, and configures the PDM version-key
// overrides of the object version log: link rows (and spec relations)
// version their *parent* object via the left column, so attaching or
// detaching a child bumps the parent — which is exactly when a cached
// single-level expansion of the parent goes stale. The server owns a
// rule table too — rules guard the action regardless of how the
// client connects.
func RegisterProcedures(db *minisql.DB, rules *RuleTable) {
	db.RegisterProc("pdm_check_out", checkProc(rules, true))
	db.RegisterProc("pdm_check_in", checkProc(rules, false))
	db.RegisterProc("pdm_eco", ecoProc)
	// The overrides are remembered if the tables do not exist yet.
	_ = db.SetVersionKey("link", "left")
	_ = db.SetVersionKey("specified_by", "left")
}

func checkProc(rules *RuleTable, out bool) minisql.Procedure {
	return func(s *minisql.Session, args []minisql.Value) (*minisql.Result, error) {
		if len(args) != 5 {
			return nil, fmt.Errorf("pdm_check: want 5 arguments (root, user, options, eff_from, eff_to), got %d", len(args))
		}
		root := args[0].Int()
		user := UserContext{
			Name:    args[1].Text(),
			Options: args[2].Text(),
			EffFrom: args[3].Int(),
			EffTo:   args[4].Int(),
		}
		// Fetch the permitted subtree with the same machinery the client
		// would use — but locally, without WAN round trips.
		q := BuildRecursiveQuery()
		m := &Modifier{Rules: rules, User: user}
		action := ActionCheck
		if !out {
			action = ActionCheck + "-in"
		}
		if err := m.ModifyRecursive(q, action); err != nil {
			return nil, err
		}
		res, err := s.ExecStmt(q, types.NewInt(root))
		if err != nil {
			return nil, err
		}
		tree, err := AssembleRecursive(root, res.Rows)
		if err != nil {
			return nil, err
		}
		granted := tree.Root != nil
		updated := 0
		conflict := false
		if granted {
			ids := map[string][]int64{}
			tree.Walk(func(n *Node) {
				ids[n.Type] = append(ids[n.Type], n.ObID)
			})
			expected := len(ids["assy"]) + len(ids["comp"])
			// The rule check above ran against a lock-free snapshot; the
			// updates below re-verify row by row (conditional WHERE) in
			// one write unit over both object tables, so between two
			// racing check-outs of overlapping subtrees exactly one sees
			// all its conditions still true — first wins, and the loser's
			// unit aborts without a trace.
			if err := s.Begin("assy", "comp"); err != nil {
				return nil, err
			}
			defer s.Abort()
			for _, table := range []string{"assy", "comp"} {
				if len(ids[table]) == 0 {
					continue
				}
				r, err := s.Exec(checkedOutListSQL(table, user.Name, ids[table], out))
				if err != nil {
					return nil, err
				}
				updated += r.RowsAffected
			}
			if out && updated < expected {
				// A concurrent check-out committed part of this subtree
				// after our snapshot: we are the loser.
				s.Abort()
				s.CountWriteConflict()
				granted = false
				updated = 0
				conflict = true
			} else if err := s.Commit(); err != nil {
				return nil, err
			}
		}
		return &minisql.Result{
			Cols: []string{"granted", "updated", "conflict"},
			Rows: []minisql.Row{{types.NewBool(granted), types.NewInt(int64(updated)), types.NewBool(conflict)}},
		}, nil
	}
}
