package core

import (
	"context"

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

// probeLevel applies the ∃structure rules to the candidate children of
// one level's pages, in place. Permissions are OR-combined, so round k
// probes rule k only for the candidates no earlier rule permitted —
// the probes the per-node client ships, each round shipped through
// execLevel — and a candidate is dropped once its last rule comes back
// empty. Every probe shipped is one the per-node client would ship too,
// so any probe error fails the action.
func (w *wireFetcher) probeLevel(ctx context.Context, pages []expandPage, action string) error {
	c := w.c
	type candidate struct {
		page, child int
		rules       []Rule
		permitted   bool
	}
	var open []candidate
	for i := range pages {
		for j, n := range pages[i].Children {
			if rules := c.predicate(KindExistsStructure, n.Type, action).rules; len(rules) > 0 {
				open = append(open, candidate{page: i, child: j, rules: rules})
			}
		}
	}
	if len(open) == 0 {
		return nil
	}
	for k := 0; len(open) > 0; k++ {
		err := w.execLevel(ctx, len(open), func(i int) (*wire.Request, error) {
			cd := open[i]
			return c.probeRequest(cd.rules[k], pages[cd.page].Children[cd.child])
		}, func(i int, resp *wire.Response) error {
			open[i].permitted = len(resp.Rows) > 0
			return nil
		})
		if err != nil {
			return err
		}
		rest := open[:0]
		for _, cd := range open {
			switch {
			case cd.permitted:
			case k+1 < len(cd.rules):
				rest = append(rest, cd)
			default:
				pages[cd.page].Children[cd.child] = nil // denied
			}
		}
		open = rest
	}
	for i := range pages {
		kept := pages[i].Children[:0]
		for _, n := range pages[i].Children {
			if n != nil {
				kept = append(kept, n)
			}
		}
		pages[i].Children = kept
	}
	return nil
}
