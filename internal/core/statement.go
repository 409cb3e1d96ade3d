package core

import (
	"pdmtune/internal/costmodel"
	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/wire"
)

// This file is the client's statement pipeline. Every statement the
// client repeats — the paper's navigational access ships one "single,
// isolated SQL query" per visited node — is built and rule-modified
// once per (kind, action) in its `?` form, kept in the one preparedSQL
// table, and turned into a wire request by the one constructor below.
// The object id travels as a bound parameter, so the server sees the
// same few texts for every node (its statement table needs one entry per
// statement shape) and the statement mode is only a frame encoding.

// stmtKind names the statements the client repeats.
type stmtKind uint8

const (
	stmtExpand    stmtKind = iota // single-level expand of one parent
	stmtProbe                     // ∃structure probe of one candidate
	stmtRecursive                 // the Section 5 recursive query
	stmtQuery                     // the set-oriented Query action
	stmtReport                    // the Report action's aggregate
	stmtWhereUsed                 // the recursive where-used statement
)

// stmtKey identifies one cached statement text: the action scopes the
// rule modification of an expand, recursive, Query or where-used
// statement; the object type and condition identify a probe.
type stmtKey struct {
	kind                  stmtKind
	action, objType, cond string
}

// preparedStmt is a statement text in its `?` form.
type preparedStmt struct {
	sql string
	// nparams is the number of placeholders; all bind the same id.
	nparams int
	// byHandle marks the per-node statement kinds the prepared mode
	// ships as handle + parameters. A one-statement action (recursive,
	// Query, where-used, Report) gains nothing from a prepare round trip
	// of its own.
	byHandle bool
}

// typeLookupStmt resolves an object id to its type across the node
// tables — the object model's discriminator query.
var typeLookupStmt = preparedStmt{
	sql:      "SELECT type FROM assy WHERE obid = ? UNION ALL SELECT type FROM comp WHERE obid = ?",
	nparams:  2,
	byHandle: true,
}

// statement returns the text of one repeated statement, building and
// rule-modifying it on first use. The texts embed the strategy's rule
// modification, so a new strategy (Apply) drops the table.
func (c *Client) statement(k stmtKey) (preparedStmt, error) {
	if st, ok := c.preparedSQL[k]; ok {
		return st, nil
	}
	var (
		q   *ast.Select
		n   int
		err error
	)
	switch k.kind {
	case stmtExpand:
		q, n = BuildExpandQuery(), 2
		err = c.modifyNavigational(q, k.action)
	case stmtQuery:
		q, n = BuildQueryAll(), 2
		err = c.modifyNavigational(q, k.action)
	case stmtRecursive:
		q, n = BuildRecursiveQuery(), 1
		err = c.modifier().ModifyRecursive(q, k.action)
	case stmtWhereUsed:
		// Row conditions only, on the record fetch: the walk takes no
		// link access rule, so the ancestor set is the level-wise walk's.
		q, n = BuildWhereUsedQuery(), 1
		err = c.modifyNavigational(q, k.action)
	case stmtReport:
		q, n = BuildReportQuery(), 2
	case stmtProbe:
		q, n, err = BuildProbeExists(k.cond, c.user, k.objType)
	}
	if err != nil {
		return preparedStmt{}, err
	}
	st := preparedStmt{sql: q.String(), nparams: n, byHandle: k.kind == stmtExpand || k.kind == stmtProbe}
	c.preparedSQL[k] = st
	return st, nil
}

// modifyNavigational injects the row conditions into a navigational
// query — unless the strategy evaluates them late, at the client.
func (c *Client) modifyNavigational(q *ast.Select, action string) error {
	if c.knobs.Strategy == costmodel.LateEval {
		return nil
	}
	return c.modifier().ModifyNavigational(q, action)
}

// request turns a statement and the object id it is about into the wire
// request. The statement mode chooses only the frame encoding here:
// text + parameters, or (wire.Client resolves the handle) handle +
// parameters.
func (c *Client) request(st preparedStmt, id int64) *wire.Request {
	params := make([]types.Value, st.nparams)
	for i := range params {
		params[i] = types.NewInt(id)
	}
	return &wire.Request{SQL: st.sql, Params: params, Prepared: c.knobs.Prepared && st.byHandle}
}
