package core

import (
	"context"

	"pdmtune/internal/cache"
	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
)

// cachedFetcher decorates a wire fetcher with the version-validated
// structure cache: fetched expand pages and recursive trees are kept
// in an LRU store stamped with the server epoch of their fetch, and a
// warm action revalidates the whole cached closure in one TypeValidate
// round trip (ids + versions up, stale ids back) instead of
// re-shipping the structure. Staleness semantics:
//
//   - validate-on-use: the first fetch of every action validates all
//     cached entries reachable from its roots in one exchange; entries
//     whose objects the server reports stale are dropped and re-fetched,
//     everything else is served locally for the rest of the action.
//   - invalidate-on-write: the client's own write actions (check-out,
//     check-in) drop affected entries directly — no round trip.
//
// The wire fetcher underneath is unchanged: a cold action costs
// exactly what an uncached session pays. Type lookups (object types are
// immutable and have their own bounded cache) and whole-structure
// statements pass through to it.
type cachedFetcher struct {
	fetcher
	c     *Client
	store *cache.Store
	// validated marks the store keys this action already revalidated
	// (or just fetched); reset by BeginAction.
	validated map[cache.Key]bool
}

// cachedPage is the stored value of one expand page: the visible
// children of one parent, held as childless clones.
type cachedPage struct {
	children []*Node
}

// cachedTree is the stored value of one recursive fetch. (The row
// count is not kept: a warm hit ships nothing, so it reports zero
// rows received.)
type cachedTree struct {
	tree *Tree
}

// BeginAction starts a fresh validation scope: the next fetch
// revalidates the cached closure it touches in one exchange.
func (f *cachedFetcher) BeginAction() {
	f.validated = map[cache.Key]bool{}
	f.fetcher.BeginAction()
}

func (f *cachedFetcher) key(id int64, action string) cache.Key {
	return cache.Key{ID: id, Action: action}
}

// ensureValidated revalidates, in at most one round trip, every
// not-yet-validated cached entry reachable from the given roots under
// this action: the entries' (id, fetch-epoch) pairs travel up, the
// stale ids come back, and every entry depending on a stale id is
// dropped (a later fetch re-fills it). Walking the cached closure —
// each page names its children, which key the next level's pages —
// is what lets a fully warm multi-level expand validate its whole
// tree before the first level is served.
func (f *cachedFetcher) ensureValidated(ctx context.Context, roots []int64, action string) error {
	// Checks are deduplicated per id at the oldest stamp among the
	// entries depending on it. This is deliberately conservative: when
	// two entries check the same object at different epochs and it
	// changed between them, both are dropped — the fresher one is
	// re-fetched needlessly, but a stale entry can never survive.
	var keys []cache.Key
	since := map[int64]uint64{} // id -> oldest stamp among entries checking it
	queue := append([]int64(nil), roots...)
	seen := map[int64]bool{}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		if seen[id] {
			continue
		}
		seen[id] = true
		k := f.key(id, action)
		if f.validated[k] {
			continue
		}
		e, ok := f.store.Get(k)
		if !ok {
			continue
		}
		keys = append(keys, k)
		for _, vid := range e.IDs {
			if s, ok := since[vid]; !ok || e.Stamp < s {
				since[vid] = e.Stamp
			}
		}
		if page, ok := e.Value.(cachedPage); ok {
			for _, ch := range page.children {
				queue = append(queue, ch.ObID)
			}
		}
	}
	if len(keys) == 0 {
		return nil
	}
	checks := make([]wire.StaleCheck, 0, len(since))
	for id, s := range since {
		checks = append(checks, wire.StaleCheck{ID: id, Since: s})
	}
	stale, err := f.c.route.Load().Read.Validate(ctx, checks)
	if err != nil {
		return err
	}
	if len(stale) > 0 {
		f.store.Invalidate(stale...)
	}
	for _, k := range keys {
		if _, ok := f.store.Get(k); ok {
			f.validated[k] = true
		}
	}
	return nil
}

// ExpandLevel serves every validated cached parent locally and fetches
// only the rest through the wire fetcher, caching their pages for the
// next action.
func (f *cachedFetcher) ExpandLevel(ctx context.Context, parents []*Node, action string) ([]expandPage, int, error) {
	ids := make([]int64, len(parents))
	for i, p := range parents {
		ids[i] = p.ObID
	}
	if err := f.ensureValidated(ctx, ids, action); err != nil {
		return nil, 0, err
	}
	pages := make([]expandPage, len(parents))
	var missIdx []int
	var missParents []*Node
	hits := 0
	for i, p := range parents {
		k := f.key(p.ObID, action)
		if e, ok := f.store.Get(k); ok && f.validated[k] {
			if page, ok := e.Value.(cachedPage); ok {
				pages[i] = expandPage{Children: cloneNodes(page.children)}
				hits++
				continue
			}
		}
		missIdx = append(missIdx, i)
		missParents = append(missParents, p)
	}
	received := 0
	if len(missParents) > 0 {
		fetched, got, err := f.fetcher.ExpandLevel(ctx, missParents, action)
		if err != nil {
			return nil, 0, err
		}
		received = got
		for j, page := range fetched {
			i := missIdx[j]
			pages[i] = page
			f.putPage(missParents[j].ObID, action, page)
		}
	}
	f.countCache(hits, len(missParents))
	return pages, received, nil
}

// putPage stores one fetched expand page. The page validates (and is
// invalidated) against the parent and every received row — filtered
// children included, so a modify that makes a hidden child visible is
// detected. Objects a page depends on only through rule predicates
// (e.g. the spec documents an ∃structure probe joins) are not in the
// id set: changing them goes undetected until the relation rows
// change too or the entry leaves the cache — a documented granularity
// limit of per-object versioning. Pages without a server epoch are
// not cacheable.
func (f *cachedFetcher) putPage(parent int64, action string, page expandPage) {
	if page.Epoch == 0 {
		return
	}
	ids := make([]int64, 0, len(page.AllIDs)+1)
	ids = append(ids, parent)
	ids = append(ids, page.AllIDs...)
	k := f.key(parent, action)
	f.store.Put(k, cache.Entry{
		Value: cachedPage{children: cloneNodes(page.Children)},
		Stamp: page.Epoch,
		IDs:   ids,
	})
	f.validated[k] = true
}

// FetchRecursive serves a validated cached tree locally, or fetches
// and caches it. A warm recursive MLE costs one validate exchange
// instead of re-shipping every node record — the latency is the same
// single round trip, but the transferred volume collapses to the
// id+version list.
func (f *cachedFetcher) FetchRecursive(ctx context.Context, root int64, action string) (*Tree, int, uint64, error) {
	if err := f.ensureValidated(ctx, []int64{root}, action); err != nil {
		return nil, 0, 0, err
	}
	k := f.key(root, action)
	if e, ok := f.store.Get(k); ok && f.validated[k] {
		if ct, ok := e.Value.(cachedTree); ok {
			f.countCache(1, 0)
			return cloneTree(ct.tree), 0, e.Stamp, nil
		}
	}
	tree, received, epoch, err := f.fetcher.FetchRecursive(ctx, root, action)
	if err != nil {
		return nil, 0, 0, err
	}
	f.countCache(0, 1)
	if epoch > 0 && tree != nil && tree.Root != nil {
		ids := treeIDs(tree)
		f.store.Put(k, cache.Entry{
			Value: cachedTree{tree: cloneTree(tree)},
			Stamp: epoch,
			IDs:   ids,
		})
		f.validated[k] = true
	}
	return tree, received, epoch, nil
}

// countCache charges hits/misses and the fetch round trips the hits
// avoided: one per locally-served parent when each parent would have
// been its own round trip, one per fully-served level under batching.
func (f *cachedFetcher) countCache(hits, misses int) {
	if f.c.meter == nil || hits+misses == 0 {
		return
	}
	saved := hits
	if f.c.knobs.Batching {
		saved = 0
		if hits > 0 && misses == 0 {
			saved = 1
		}
	}
	f.c.meter.Add(netsim.Metrics{CacheHits: hits, CacheMisses: misses, SavedRoundTrips: saved})
}

// ---------------------------------------------------------------------------
// clone helpers — cached values are owned by the store; both puts and
// gets deep-copy so no action can mutate what a later one is served.

// cloneNodes copies expand-page children into one array, without
// Children links (the BFS loop re-attaches them per action). The copies
// share their text with the originals, so a cached page keeps the
// frame its nodes were decoded from.
func cloneNodes(ns []*Node) []*Node {
	out := make([]*Node, len(ns))
	cps := make([]Node, len(ns))
	for i, n := range ns {
		cps[i] = *n
		cps[i].Children = nil
		out[i] = &cps[i]
	}
	return out
}

// cloneTree deep-copies a reassembled tree, index included.
func cloneTree(t *Tree) *Tree {
	out := &Tree{Index: map[int64]*Node{}}
	if t == nil || t.Root == nil {
		return out
	}
	var rec func(n *Node) *Node
	rec = func(n *Node) *Node {
		cp := *n
		cp.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			cp.Children[i] = rec(ch)
		}
		out.Index[cp.ObID] = &cp
		return &cp
	}
	out.Root = rec(t.Root)
	return out
}

// treeIDs lists every node id of a tree (root included).
func treeIDs(t *Tree) []int64 {
	var ids []int64
	t.Walk(func(n *Node) { ids = append(ids, n.ObID) })
	return ids
}
