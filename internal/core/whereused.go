package core

import (
	"context"
	"fmt"

	"pdmtune/internal/costmodel"
	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
)

// The engineering-change workloads: where-used (the inverse traversal —
// which assemblies use this part), ECO propagation (touch a part,
// revalidate every assembly the change reaches) and the bulk report.
// Under the recursive strategy where-used is one statement
// (BuildWhereUsedQuery) with the row conditions inside; the
// navigational strategies walk upward one statement per level and
// filter the fetched records at the client — the paper's baseline. ECO
// is a write, so it does not follow the read strategy: it is one call of
// the pdm_eco procedure, which walks the same closure at the server and
// updates the part and its assemblies in one write unit. Where-used
// and the report read through the fetcher's Exec: where-used walks the
// structure against the direction the subscription closure guarantees,
// and the report aggregates over the whole product, so on a partial
// replica both run wholly at the primary as fall-through reads.

// whereUsedClosure walks the link structure upward from start and
// returns every transitive ancestor (start excluded) in BFS order,
// plus the rows received. One statement per ancestor level; the last
// level's empty answer is what terminates the walk, as in the downward
// navigational expand.
func (c *Client) whereUsedClosure(ctx context.Context, start int64) ([]int64, int, error) {
	seen := map[int64]bool{start: true}
	frontier := []int64{start}
	var ancestors []int64
	received := 0
	for len(frontier) > 0 {
		resp, err := c.fetch.Exec(ctx, &wire.Request{SQL: BuildWhereUsedLevelSQL(frontier)})
		if err != nil {
			return nil, 0, err
		}
		received += len(resp.Rows)
		var next []int64
		for _, row := range resp.Rows {
			if len(row) == 0 || row[0].Kind() != types.KindInt {
				continue
			}
			id := row[0].Int()
			if !seen[id] {
				seen[id] = true
				ancestors = append(ancestors, id)
				next = append(next, id)
			}
		}
		frontier = next
	}
	return ancestors, received, nil
}

// whereUsedRows returns the unified rows of the part's ancestors and
// the rows received on the way. Under the recursive strategy that is
// one rule-modified statement; otherwise the level-wise walk and one
// record fetch, whose rows the caller still has to filter.
func (c *Client) whereUsedRows(ctx context.Context, part int64) ([]storage.Row, int, error) {
	if c.knobs.Strategy == costmodel.Recursive {
		st, err := c.statement(stmtKey{kind: stmtWhereUsed, action: ActionWhereUsed})
		if err != nil {
			return nil, 0, err
		}
		resp, err := c.fetch.Exec(ctx, c.request(st, part))
		if err != nil {
			return nil, 0, err
		}
		return resp.Rows, len(resp.Rows), nil
	}
	ancestors, received, err := c.whereUsedClosure(ctx, part)
	if err != nil || len(ancestors) == 0 {
		return nil, received, err
	}
	resp, err := c.fetch.Exec(ctx, &wire.Request{SQL: BuildFetchNodesSQL(ancestors)})
	if err != nil {
		return nil, 0, err
	}
	return resp.Rows, received + len(resp.Rows), nil
}

// WhereUsed performs the where-used action: find every assembly that
// (transitively) uses the given part and fetch their records — in one
// round trip under the recursive strategy, one per ancestor level plus
// the record fetch otherwise, where the row conditions are evaluated at
// the client.
func (c *Client) WhereUsed(ctx context.Context, part int64) (*ActionResult, error) {
	before := c.start()
	if err := c.beginAction(ctx); err != nil {
		return nil, err
	}
	rows, received, err := c.whereUsedRows(ctx, part)
	if err != nil {
		return nil, err
	}
	res := &ActionResult{RowsReceived: received, Objects: make([]*Node, 0, len(rows))}
	nodes := make([]Node, len(rows))
	for i, row := range rows {
		n := &nodes[i]
		if err := decodeNode(row, n); err != nil {
			return nil, err
		}
		c.rememberType(n)
		if c.knobs.Strategy != costmodel.Recursive {
			ok, err := c.localRowPermitted(n.Type, ActionWhereUsed, row)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		res.Objects = append(res.Objects, n)
	}
	res.Visible = len(res.Objects)
	c.countAction(ActionWhereUsed, part, false)
	res.Metrics = c.delta(before)
	return res, nil
}

// ECOResult reports one engineering-change propagation.
type ECOResult struct {
	// Affected lists the assemblies the change reaches (the part's
	// where-used closure).
	Affected []int64
	// Updated counts the objects whose state was revalidated — the part
	// plus the affected assemblies that were not checked out.
	Updated int
	// Conflicts counts the objects skipped because a user holds them
	// checked out; the change owner must retry after check-in.
	Conflicts int
	// RowsReceived counts the rows shipped back: one per affected
	// assembly.
	RowsReceived int
	// Metrics is the WAN cost of the whole action.
	Metrics netsim.Metrics
}

// ECOPropagate performs an engineering-change order against one part:
// flip the part and every assembly of its where-used closure into the
// new state, in one round trip to the primary's pdm_eco procedure,
// whatever the read strategy. The updates are conditional on the
// checked-out flag — an object someone holds checked out is not
// revalidated under them and is reported as a conflict instead. Cached
// structures covering the changed objects are invalidated locally.
func (c *Client) ECOPropagate(ctx context.Context, part int64, newState string) (*ECOResult, error) {
	before := c.start()
	if err := c.beginAction(ctx); err != nil {
		return nil, err
	}
	req := &wire.Request{SQL: "CALL pdm_eco(?, ?)", Params: []types.Value{types.NewInt(part), types.NewText(newState)}}
	var resp *wire.Response
	err := c.withWrite(func(w *wire.Client) error {
		var err error
		resp, err = w.Do(ctx, req)
		return err
	})
	if err != nil {
		return nil, err
	}
	affected := make([]int64, len(resp.Rows))
	for i, row := range resp.Rows {
		if len(row) != 1 || row[0].Kind() != types.KindInt {
			return nil, fmt.Errorf("core: pdm_eco row %d is not an object id: %v", i, row)
		}
		affected[i] = row[0].Int()
	}
	out := &ECOResult{
		Affected:     affected,
		Updated:      resp.RowsAffected,
		Conflicts:    1 + len(affected) - resp.RowsAffected,
		RowsReceived: len(resp.Rows),
	}
	if out.Conflicts > 0 {
		if m := c.primaryMeter(); m != nil {
			m.Add(netsim.Metrics{WriteConflicts: int64(out.Conflicts)})
		}
	}
	// The states just changed under every cached entry covering these
	// objects — retire them locally, without a round trip.
	c.invalidateCache(append(append([]int64(nil), affected...), part))
	c.countAction(ActionECO, part, true)
	out.Metrics = c.delta(before)
	return out, nil
}

// ecoClosureSQL lists the part's where-used closure (the ids only).
const ecoClosureSQL = whereUsedClosure + "\nSELECT obid FROM wtbl"

// ecoProc is pdm_eco(part, state): the ECO at the server. It walks the
// part's where-used closure locally, then sets the state of the part and
// of every closure member that is not checked out, in one write unit
// over both object tables — a reader sees the whole change or none of
// it. It answers the closure's ids, one row each, with the number of
// objects updated as RowsAffected. A part found in neither object table
// is an error.
func ecoProc(s *minisql.Session, args []minisql.Value) (*minisql.Result, error) {
	if len(args) != 2 || args[0].Kind() != types.KindInt {
		return nil, fmt.Errorf("pdm_eco: want 2 arguments (part, state), got %v", args)
	}
	part, state := args[0], args[1]
	found, err := s.Exec(typeLookupStmt.sql, part, part)
	if err != nil {
		return nil, err
	}
	if len(found.Rows) == 0 {
		return nil, fmt.Errorf("pdm_eco: object %d does not exist", part.Int())
	}
	closure, err := s.Exec(ecoClosureSQL, part)
	if err != nil {
		return nil, err
	}
	ids := []int64{part.Int()}
	for _, row := range closure.Rows {
		ids = append(ids, row[0].Int())
	}
	list := idList(ids)
	// Upward links only reach assemblies, but the part may be either
	// kind, so both tables take the whole id list.
	if err := s.Begin("assy", "comp"); err != nil {
		return nil, err
	}
	defer s.Abort()
	updated := 0
	for _, table := range []string{"assy", "comp"} {
		r, err := s.Exec(fmt.Sprintf("UPDATE %s SET state = ? WHERE obid IN (%s) AND checkedout <> TRUE", table, list), state)
		if err != nil {
			return nil, err
		}
		updated += r.RowsAffected
	}
	if err := s.Commit(); err != nil {
		return nil, err
	}
	return &minisql.Result{Cols: []string{"affected"}, Rows: closure.Rows, RowsAffected: updated}, nil
}

// ReportResult is the bulk report's aggregate.
type ReportResult struct {
	// Assemblies and Components count the product's nodes by kind.
	Assemblies, Components int
	// CheckedOut counts nodes currently held checked out.
	CheckedOut int
	// TotalWeight sums the weight attribute over all nodes.
	TotalWeight float64
	// RowsReceived counts rows shipped: the two aggregate rows, one per
	// node table.
	RowsReceived int
	// Metrics is the WAN cost of the whole action.
	Metrics netsim.Metrics
}

// Report performs the bulk report: a full-structure aggregate over one
// product — node counts, total weight, outstanding check-outs — computed
// at the server by one statement (BuildReportQuery), which ships two
// rows in one round trip. A full replica answers it site-locally; a
// subscription-bounded one cannot count the subtrees it does not hold,
// so there the statement runs at the primary as a fall-through read.
func (c *Client) Report(ctx context.Context, prod int64) (*ReportResult, error) {
	before := c.start()
	if err := c.beginAction(ctx); err != nil {
		return nil, err
	}
	st, err := c.statement(stmtKey{kind: stmtReport})
	if err != nil {
		return nil, err
	}
	resp, err := c.fetch.Exec(ctx, c.request(st, prod))
	if err != nil {
		return nil, err
	}
	if len(resp.Rows) != 2 {
		return nil, fmt.Errorf("core: report returned %d rows, want 2", len(resp.Rows))
	}
	out := &ReportResult{RowsReceived: len(resp.Rows)}
	for i, row := range resp.Rows {
		if len(row) != 3 || row[0].Kind() != types.KindInt {
			return nil, fmt.Errorf("core: report row %d is not (count, weight, checked out): %v", i, row)
		}
		if i == 0 {
			out.Assemblies = int(row[0].Int())
		} else {
			out.Components = int(row[0].Int())
		}
		if w, ok := row[1].AsFloat(); ok { // NULL: no weight in this table
			out.TotalWeight += w
		}
		if n, ok := row[2].AsFloat(); ok {
			out.CheckedOut += int(n)
		}
	}
	c.countAction(ActionReport, prod, false)
	out.Metrics = c.delta(before)
	return out, nil
}
