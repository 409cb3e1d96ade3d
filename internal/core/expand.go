package core

import (
	"context"

	"pdmtune/internal/costmodel"
	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/wire"
)

// This file is the wire fetcher's single-level expand strategy: how
// the children of one parent (or one whole BFS level) are pulled
// across the WAN under the client's configured statement mode.

// expandRequest builds the wire request expanding one parent.
func (c *Client) expandRequest(parent int64, action string) (*wire.Request, error) {
	st, err := c.statement(stmtKey{kind: stmtExpand, action: action})
	if err != nil {
		return nil, err
	}
	return c.request(st, parent), nil
}

// filterExpandRows applies the client-side rule filters to the rows of
// one expand answer, decoded into one node array. It returns the
// surviving candidate children and the object ids of every received row
// (the filtered ones included — the cache layer validates against all
// of them, so a modification that makes a filtered child visible is
// detected). ∃structure conditions are not checked here — they need
// server probes.
func (c *Client) filterExpandRows(rows []storage.Row, action string) ([]*Node, []int64, error) {
	out := make([]*Node, 0, len(rows))
	nodes := make([]Node, len(rows))
	allIDs := make([]int64, 0, len(rows))
	late := c.knobs.Strategy == costmodel.LateEval
	var link *predicate
	if late {
		link = c.predicate(KindRow, typeLink, action)
	}
	for i, row := range rows {
		n := &nodes[i]
		if err := decodeNode(row, n); err != nil {
			return nil, nil, err
		}
		allIDs = append(allIDs, n.ObID)
		c.rememberType(n)
		if late {
			// Link traversal rules (structure options, effectivities).
			ok, err := c.permits(link, row)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				continue
			}
			// Row conditions on the child's object type.
			ok, err = c.localRowPermitted(n.Type, action, row)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				continue
			}
		}
		out = append(out, n)
	}
	return out, allIDs, nil
}

// expandOnce ships one navigational expand query and returns the
// permitted children of one parent. Under late evaluation the client
// filters the received rows against its rule table; ∃structure
// conditions require extra probe round trips under every navigational
// strategy because the related objects live only in the server's
// database.
func (w *wireFetcher) expandOnce(ctx context.Context, parent int64, action string) (expandPage, error) {
	c := w.c
	req, err := c.expandRequest(parent, action)
	if err != nil {
		return expandPage{}, err
	}
	resp, err := w.exec(ctx, req)
	if err != nil {
		return expandPage{}, err
	}
	cands, allIDs, err := c.filterExpandRows(resp.Rows, action)
	if err != nil {
		return expandPage{}, err
	}
	var out []*Node
	for _, n := range cands {
		keep, err := w.probeExistsStructure(ctx, n, action)
		if err != nil {
			return expandPage{}, err
		}
		if keep {
			out = append(out, n)
		}
	}
	return expandPage{Children: out, AllIDs: allIDs, Epoch: resp.Epoch}, nil
}

// expandLevelBatched expands every parent of one BFS level in a single
// batch round trip — the paper's statement-per-node loop collapsed into
// one WAN communication per tree level. A second batch carries all
// ∃structure probes of the level, when any apply.
func (w *wireFetcher) expandLevelBatched(ctx context.Context, parents []*Node, action string) ([]expandPage, int, error) {
	c := w.c
	reqs := make([]*wire.Request, len(parents))
	for i, p := range parents {
		req, err := c.expandRequest(p.ObID, action)
		if err != nil {
			return nil, 0, err
		}
		reqs[i] = req
	}
	resps, err := c.sql.ExecBatch(ctx, reqs)
	if err != nil {
		return nil, 0, err
	}
	received := 0
	pages := make([]expandPage, len(parents))
	children := make([][]*Node, len(parents))
	for i, resp := range resps {
		received += len(resp.Rows)
		ns, allIDs, err := c.filterExpandRows(resp.Rows, action)
		if err != nil {
			return nil, 0, err
		}
		children[i] = ns
		pages[i] = expandPage{AllIDs: allIDs, Epoch: resp.Epoch}
	}
	children, err = w.probeExistsStructureBatched(ctx, children, action)
	if err != nil {
		return nil, 0, err
	}
	for i := range pages {
		pages[i].Children = children[i]
	}
	return pages, received, nil
}
