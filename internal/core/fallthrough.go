package core

import (
	"context"

	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
)

// fallThroughFetcher is the partial-replication read layer and the one
// place that decides where a read runs: a client at a
// subscription-bounded replica serves in-subscription reads from the
// site (the inner chain — cache over the site-local wire path) and
// transparently re-issues everything else against the primary, at WAN
// cost, through a second wire fetcher bound to the primary connection.
// The subtree closure guarantees "root held ⇒ whole subtree held", so a
// recursive fetch routes whole-call by its root; the navigational
// expand partitions each BFS level parent-by-parent (a level can mix
// held and fallen-through parents when the action's root itself was
// out of subscription). A whole-structure statement (Exec: Query,
// where-used, the report, raw reads) cannot respect the closure — an
// ancestor chain leaves the subscribed subtree at any level, a product
// spans every subtree — so it runs at the primary while the site is
// partial.
type fallThroughFetcher struct {
	inner   fetcher
	primary fetcher
	holds   HoldsSource
}

func (f *fallThroughFetcher) BeginAction() { f.inner.BeginAction() }

// lane picks the fetcher serving a read rooted at id: the inner chain
// while the site replicates in full or holds the object, the primary
// otherwise.
func (f *fallThroughFetcher) lane(id int64) fetcher {
	if !f.holds.Partial() || f.holds.Holds(id) {
		return f.inner
	}
	return f.primary
}

func (f *fallThroughFetcher) LookupType(ctx context.Context, obid int64) (string, error) {
	return f.lane(obid).LookupType(ctx, obid)
}

func (f *fallThroughFetcher) Exec(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if f.holds.Partial() {
		return f.primary.Exec(ctx, req)
	}
	return f.inner.Exec(ctx, req)
}

func (f *fallThroughFetcher) FetchRecursive(ctx context.Context, root int64, action string) (*Tree, int, uint64, error) {
	return f.lane(root).FetchRecursive(ctx, root, action)
}

// ExpandLevel partitions the level by what the replica holds: held
// parents expand through the inner chain (cache, batching, prepared
// statements — the fast lane), the rest expand against the primary.
// Page order matches the parents, as the fetcher contract requires.
func (f *fallThroughFetcher) ExpandLevel(ctx context.Context, parents []*Node, action string) ([]expandPage, int, error) {
	if !f.holds.Partial() {
		return f.inner.ExpandLevel(ctx, parents, action)
	}
	// Lane 0 is the inner chain, lane 1 the primary.
	lanes := [2]fetcher{f.inner, f.primary}
	var part [2][]*Node
	var idx [2][]int
	for i, p := range parents {
		k := 0
		if !f.holds.Holds(p.ObID) {
			k = 1
		}
		part[k], idx[k] = append(part[k], p), append(idx[k], i)
	}
	pages := make([]expandPage, len(parents))
	received := 0
	for k, lane := range lanes {
		if len(part[k]) == 0 {
			continue
		}
		got, n, err := lane.ExpandLevel(ctx, part[k], action)
		if err != nil {
			return nil, 0, err
		}
		received += n
		for j, i := range idx[k] {
			pages[i] = got[j]
		}
	}
	return pages, received, nil
}

// execFallThrough ships one statement to the primary over the write
// path and charges the fall-through round trip to the WAN meter. The
// byte and latency accounting happens in the transport as for any
// primary exchange; this counter is what attributes the trip to a
// subscription miss. The lane always ships text: it is the explicitly
// expensive slow lane the subscription is meant to make rare, and a
// handle there would cost a prepare round trip of its own.
func (c *Client) execFallThrough(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	req.Prepared = false
	var resp *wire.Response
	err := c.withWrite(func(w *wire.Client) error {
		var err error
		resp, err = w.Do(ctx, req)
		return err
	})
	if err != nil {
		return nil, err
	}
	if m := c.primaryMeter(); m != nil {
		m.Add(netsim.Metrics{FallThroughRoundTrips: 1})
	}
	return resp, nil
}
