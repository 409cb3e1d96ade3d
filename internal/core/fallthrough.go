package core

import (
	"context"
	"fmt"

	"pdmtune/internal/cache"
	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
)

// fallThroughFetcher is the partial-replication read layer: a client at
// a subscription-bounded replica serves in-subscription reads from the
// site (the inner chain — cache over the site-local wire path) and
// transparently re-issues everything else against the primary, at WAN
// cost. The subtree closure guarantees "root held ⇒ whole subtree
// held", so a recursive fetch routes whole-call by its root; the
// navigational expand partitions each BFS level parent-by-parent (a
// level can mix held and fallen-through parents when the action's root
// itself was out of subscription).
//
// The primary path always ships plain statement text over the write
// client — prepared handles are connection-scoped to the site server,
// and the fall-through path is the explicitly-expensive slow lane the
// subscription is meant to make rare. Every primary exchange increments
// the FallThroughRoundTrips counter on the WAN meter.
type fallThroughFetcher struct {
	inner fetcher
	c     *Client
	holds HoldsSource
}

func (f *fallThroughFetcher) BeginAction() { f.inner.BeginAction() }

func (f *fallThroughFetcher) EnsureFresh(ctx context.Context) error {
	return f.inner.EnsureFresh(ctx)
}

// active reports whether fall-through routing applies at all — it
// switches itself off while the site replicates in full.
func (f *fallThroughFetcher) active() bool { return f.holds.Partial() }

func (f *fallThroughFetcher) LookupType(ctx context.Context, obid int64) (string, error) {
	if !f.active() || f.holds.Holds(obid) {
		return f.inner.LookupType(ctx, obid)
	}
	c := f.c
	if e, ok := c.types.Get(c.typeKey(obid)); ok {
		return e.Value.(string), nil
	}
	resp, err := c.execFallThrough(ctx, fmt.Sprintf(
		"SELECT type FROM assy WHERE obid = %d UNION ALL SELECT type FROM comp WHERE obid = %d", obid, obid))
	if err != nil {
		return "", err
	}
	if len(resp.Rows) == 0 || len(resp.Rows[0]) == 0 {
		return "", fmt.Errorf("core: object %d does not exist", obid)
	}
	t := resp.Rows[0][0].String()
	c.types.Put(c.typeKey(obid), cache.Entry{Value: t})
	return t, nil
}

func (f *fallThroughFetcher) FetchRecursive(ctx context.Context, root int64, action string) (*Tree, int, uint64, error) {
	if !f.active() || f.holds.Holds(root) {
		return f.inner.FetchRecursive(ctx, root, action)
	}
	c := f.c
	q := BuildRecursiveQuery(root)
	if err := c.modifier().ModifyRecursive(q, action); err != nil {
		return nil, 0, 0, err
	}
	resp, err := c.execFallThrough(ctx, q.String())
	if err != nil {
		return nil, 0, 0, err
	}
	tree, err := AssembleRecursive(root, resp.Rows)
	if err != nil {
		return nil, 0, 0, err
	}
	tree.Walk(func(n *Node) { c.rememberType(n) })
	return tree, len(resp.Rows), resp.Epoch, nil
}

// ExpandLevel partitions the level by what the replica holds: held
// parents expand through the inner chain (cache, batching, prepared
// statements — the fast lane), the rest expand against the primary one
// statement at a time. Page order matches the parents, as the fetcher
// contract requires.
func (f *fallThroughFetcher) ExpandLevel(ctx context.Context, parents []*Node, action string) ([]expandPage, int, error) {
	if !f.active() {
		return f.inner.ExpandLevel(ctx, parents, action)
	}
	var held []*Node
	heldIdx := make([]int, 0, len(parents))
	missIdx := make([]int, 0)
	for i, p := range parents {
		if f.holds.Holds(p.ObID) {
			held = append(held, p)
			heldIdx = append(heldIdx, i)
		} else {
			missIdx = append(missIdx, i)
		}
	}
	pages := make([]expandPage, len(parents))
	received := 0
	if len(held) > 0 {
		inner, got, err := f.inner.ExpandLevel(ctx, held, action)
		if err != nil {
			return nil, 0, err
		}
		received += got
		for k, i := range heldIdx {
			pages[i] = inner[k]
		}
	}
	for _, i := range missIdx {
		page, err := f.expandOnPrimary(ctx, parents[i].ObID, action)
		if err != nil {
			return nil, 0, err
		}
		received += len(page.AllIDs)
		pages[i] = page
	}
	return pages, received, nil
}

// expandOnPrimary is expandOnce re-aimed at the primary: same statement
// text, same client-side filtering, same ∃structure probes — only the
// transport differs.
func (f *fallThroughFetcher) expandOnPrimary(ctx context.Context, parent int64, action string) (expandPage, error) {
	c := f.c
	sql, err := c.buildExpandSQL(parent, action)
	if err != nil {
		return expandPage{}, err
	}
	resp, err := c.execFallThrough(ctx, sql)
	if err != nil {
		return expandPage{}, err
	}
	cands, allIDs, err := c.filterExpandRows(resp.Rows, action)
	if err != nil {
		return expandPage{}, err
	}
	var out []*Node
	for _, n := range cands {
		rules := c.rules.Relevant(c.user.Name, []string{action, ActionAccess}, n.Type, KindExistsStructure)
		keep := len(rules) == 0
		for _, r := range rules {
			probe, err := BuildProbeExists(r.Cond, c.user, n.Type, n.ObID)
			if err != nil {
				return expandPage{}, err
			}
			presp, err := c.execFallThrough(ctx, probe.String())
			if err != nil {
				return expandPage{}, err
			}
			if len(presp.Rows) > 0 {
				keep = true // permissions are OR-combined
				break
			}
		}
		if keep {
			out = append(out, n)
		}
	}
	return expandPage{Children: out, AllIDs: allIDs, Epoch: resp.Epoch}, nil
}

// execFallThrough ships one statement to the primary over the write
// path and charges the fall-through round trip to the WAN meter. The
// byte and latency accounting happens in the transport as for any
// primary exchange; this counter is what attributes the trip to a
// subscription miss.
func (c *Client) execFallThrough(ctx context.Context, sql string) (*wire.Response, error) {
	var resp *wire.Response
	err := c.withWrite(func(w *wire.Client, _ map[string]uint32) error {
		var err error
		resp, err = w.Exec(ctx, sql)
		return err
	})
	if err != nil {
		return nil, err
	}
	c.countFallThrough(1)
	return resp, nil
}

// partialReplica reports whether the client currently reads from a
// subscription-bounded replica — the actions that cannot respect the
// downward closure (where-used walks upward) route themselves wholly to
// the primary when it does.
func (c *Client) partialReplica() bool {
	return c.site != nil && c.site.holds != nil && c.site.holds.Partial()
}

// countFallThrough charges fall-through round trips to the meter of the
// link they crossed (the primary/WAN meter when the write path has its
// own).
func (c *Client) countFallThrough(n int) {
	c.writeMu.RLock()
	m := c.writeMeter
	c.writeMu.RUnlock()
	if m == nil {
		m = c.meter
	}
	if m != nil {
		m.Add(netsim.Metrics{FallThroughRoundTrips: n})
	}
}
