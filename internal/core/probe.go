package core

import (
	"context"
	"errors"

	"pdmtune/internal/wire"
)

// This file is the wire fetcher's ∃structure probe strategy: the
// extra round trips a navigational client must pay per candidate node
// because the related objects live only in the server's database.

// probeRequest builds the wire request probing one ∃structure rule for
// one candidate node.
func (c *Client) probeRequest(r Rule, n *Node) (*wire.Request, error) {
	st, err := c.statement(stmtKey{kind: stmtProbe, objType: n.Type, cond: r.Cond})
	if err != nil {
		return nil, err
	}
	return c.request(st, n.ObID), nil
}

// probeExistsStructure checks ∃structure rules for one candidate object
// by shipping a probe query per rule group — the round trips a
// navigational client cannot avoid.
func (w *wireFetcher) probeExistsStructure(ctx context.Context, n *Node, action string) (bool, error) {
	c := w.c
	rules := c.predicate(KindExistsStructure, n.Type, action).rules
	if len(rules) == 0 {
		return true, nil
	}
	for _, r := range rules {
		req, err := c.probeRequest(r, n)
		if err != nil {
			return false, err
		}
		resp, err := w.exec(ctx, req)
		if err != nil {
			return false, err
		}
		if len(resp.Rows) > 0 {
			return true, nil // permissions are OR-combined
		}
	}
	return false, nil
}

// probeExistsStructureBatched checks ∃structure rules for all candidates
// of one BFS level with a single batch of probe queries instead of one
// round trip per (node, rule) pair. The per-node verdict is unchanged:
// a node survives when any of its rules' probes returns a row, and — as
// in the unbatched OR short-circuit — a probe that errors only fails the
// action when no earlier rule already permitted its node; otherwise the
// surviving probes are re-batched past the failure.
func (w *wireFetcher) probeExistsStructureBatched(ctx context.Context, children [][]*Node, action string) ([][]*Node, error) {
	c := w.c
	type nodeRef struct{ level, child int }
	type probe struct {
		node nodeRef
		req  *wire.Request
	}
	var pending []probe
	probed := map[nodeRef]bool{}
	permit := map[nodeRef]bool{}
	for i, ns := range children {
		for j, n := range ns {
			for _, r := range c.predicate(KindExistsStructure, n.Type, action).rules {
				req, err := c.probeRequest(r, n)
				if err != nil {
					return nil, err
				}
				ref := nodeRef{level: i, child: j}
				pending = append(pending, probe{node: ref, req: req})
				probed[ref] = true
			}
		}
	}
	for len(pending) > 0 {
		// Short-circuit: a node permitted by an earlier rule needs no
		// further probes (permissions are OR-combined).
		var rest []probe
		for _, p := range pending {
			if !permit[p.node] {
				rest = append(rest, p)
			}
		}
		pending = rest
		if len(pending) == 0 {
			break
		}
		reqs := make([]*wire.Request, len(pending))
		for i, p := range pending {
			reqs[i] = p.req
		}
		resps, err := c.sql.ExecBatch(ctx, reqs)
		for i, resp := range resps {
			if len(resp.Rows) > 0 {
				permit[pending[i].node] = true
			}
		}
		if err == nil {
			break
		}
		var be *wire.BatchError
		if !errors.As(err, &be) {
			return nil, err
		}
		// The unbatched client would only reach this probe if no earlier
		// rule had permitted the node — in that case the error is real.
		if !permit[pending[be.Index].node] {
			return nil, err
		}
		pending = pending[be.Index+1:]
	}
	out := make([][]*Node, len(children))
	for i, ns := range children {
		for j, n := range ns {
			ref := nodeRef{level: i, child: j}
			if !probed[ref] || permit[ref] {
				out[i] = append(out[i], n)
			}
		}
	}
	return out, nil
}
