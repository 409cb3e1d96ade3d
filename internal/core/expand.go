package core

import (
	"pdmtune/internal/costmodel"
	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/wire"
)

// This file builds the wire fetcher's single-level expand statement and
// filters its answer; ExpandLevel (fetch.go) ships a level of them.

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
