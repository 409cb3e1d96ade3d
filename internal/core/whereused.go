package core

import (
	"context"
	"fmt"

	"pdmtune/internal/minisql/types"
	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
)

// The engineering-change workloads: where-used (the inverse traversal —
// which assemblies use this part), ECO propagation (touch a part,
// revalidate every assembly the change reaches) and the bulk report.
// Where-used walks the structure upward, against the direction the
// subscription closure guarantees, and the report aggregates over the
// whole product, so on a partial replica both route wholly to the
// primary as fall-through reads.

// wholeStructureDo ships a read that needs the whole structure: over the
// site-local read connection normally, to the primary (counted as
// fall-through) when the replica is subscription-bounded — an ancestor
// chain can leave the subscribed subtree at any level, and a product
// aggregate spans every subtree, so such reads run where the full
// structure lives.
func (c *Client) wholeStructureDo(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if c.partialReplica() {
		return c.execFallThrough(ctx, req)
	}
	return c.sql.Do(ctx, req)
}

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
		resp, err := c.wholeStructureDo(ctx, &wire.Request{SQL: BuildWhereUsedLevelSQL(frontier)})
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

// WhereUsed performs the where-used action: find every assembly that
// (transitively) uses the given part, then fetch their records. The
// traversal is navigational and upward — one statement per ancestor
// level — followed by one set-oriented record fetch; row conditions are
// evaluated at the client (the inverse traversal has no rule-modified
// builder, so every strategy filters late here).
func (c *Client) WhereUsed(ctx context.Context, part int64) (*ActionResult, error) {
	before := c.snapshot()
	if err := c.beginAction(ctx); err != nil {
		return nil, err
	}
	ancestors, received, err := c.whereUsedClosure(ctx, part)
	if err != nil {
		return nil, err
	}
	res := &ActionResult{}
	if len(ancestors) > 0 {
		resp, err := c.wholeStructureDo(ctx, &wire.Request{SQL: BuildFetchNodesSQL(ancestors)})
		if err != nil {
			return nil, err
		}
		received += len(resp.Rows)
		for _, row := range resp.Rows {
			n, err := decodeNode(row)
			if err != nil {
				return nil, err
			}
			c.rememberType(n)
			ok, err := c.localRowPermitted(n.Type, ActionWhereUsed, row)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			res.Objects = append(res.Objects, n)
		}
	}
	res.RowsReceived = received
	res.Visible = len(res.Objects)
	res.Metrics = c.delta(before)
	c.countAction(ActionWhereUsed, part, false)
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
	// RowsReceived counts rows shipped during the traversal.
	RowsReceived int
	// Metrics is the WAN cost of the whole action.
	Metrics netsim.Metrics
}

// ECOPropagate performs an engineering-change order against one part:
// walk its where-used closure, then flip the part and every affected
// assembly into the new state. The updates are conditional on the
// checked-out flag — an object someone holds checked out is not
// revalidated under them and is reported as a conflict instead. Cached
// structures covering the changed objects are invalidated locally.
func (c *Client) ECOPropagate(ctx context.Context, part int64, newState string) (*ECOResult, error) {
	before := c.snapshot()
	if err := c.beginAction(ctx); err != nil {
		return nil, err
	}
	affected, received, err := c.whereUsedClosure(ctx, part)
	if err != nil {
		return nil, err
	}
	partType, err := c.fetch.LookupType(ctx, part)
	if err != nil {
		return nil, err
	}
	stmts := []string{fmt.Sprintf(
		"UPDATE %s SET state = %s WHERE obid = %d AND checkedout <> TRUE",
		partType, sqlText(newState), part)}
	if len(affected) > 0 {
		// Upward link traversal only ever reaches assemblies (only they
		// parent links), so one table covers the whole closure.
		stmts = append(stmts, fmt.Sprintf(
			"UPDATE assy SET state = %s WHERE obid IN (%s) AND checkedout <> TRUE",
			sqlText(newState), idList(affected)))
	}
	updated := 0
	err = c.withWrite(func(w *wire.Client) error {
		updated = 0
		for _, sql := range stmts {
			resp, err := w.Exec(ctx, sql)
			if err != nil {
				return err
			}
			updated += resp.RowsAffected
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &ECOResult{
		Affected:     affected,
		Updated:      updated,
		Conflicts:    1 + len(affected) - updated,
		RowsReceived: received,
	}
	if out.Conflicts > 0 {
		if m := c.conflictMeter(); m != nil {
			m.Add(netsim.Metrics{WriteConflicts: int64(out.Conflicts)})
		}
	}
	// The states just changed under every cached entry covering these
	// objects — retire them locally, without a round trip.
	c.invalidateCache(append(append([]int64(nil), affected...), part))
	out.Metrics = c.delta(before)
	c.countAction(ActionECO, part, true)
	return out, nil
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
	before := c.snapshot()
	if err := c.beginAction(ctx); err != nil {
		return nil, err
	}
	st, err := c.statement(stmtKey{kind: stmtReport})
	if err != nil {
		return nil, err
	}
	resp, err := c.wholeStructureDo(ctx, c.request(st, prod))
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
	out.Metrics = c.delta(before)
	c.countAction(ActionReport, prod, false)
	return out, nil
}
