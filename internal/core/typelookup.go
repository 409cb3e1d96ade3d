package core

import (
	"context"
	"fmt"

	"pdmtune/internal/cache"
)

// Object type resolution. Looked-up and received types are remembered
// in the client's (LRU-bounded) cache store, so the root of a repeated
// expand costs its type lookup only once — and a long session can no
// longer grow an unbounded id→type map. Object types are immutable in
// the PDM schema, so type entries need no version validation; they
// leave the cache only under LRU pressure.

// typeKey returns the cache key of an object's type entry. The type
// store holds nothing else, and types are objective — independent of
// user, rules and strategy — so the key is the object alone.
func typeKey(obid int64) cache.Key { return cache.Key{ID: obid} }

// LookupType resolves the actual type of an object (the paper's
// object tables assy and comp). Cached results cost nothing; the
// first lookup of an unknown id is one WAN statement. An id found in
// neither table is an error, not an empty assembly.
func (w *wireFetcher) LookupType(ctx context.Context, obid int64) (string, error) {
	c := w.c
	if e, ok := c.types.Get(typeKey(obid)); ok {
		return e.Value.(string), nil
	}
	resp, err := w.Exec(ctx, c.request(typeLookupStmt, obid))
	if err != nil {
		return "", err
	}
	if len(resp.Rows) == 0 || len(resp.Rows[0]) == 0 {
		return "", fmt.Errorf("core: object %d does not exist", obid)
	}
	t := internType(resp.Rows[0][0].String())
	c.types.Put(typeKey(obid), cache.Entry{Value: t})
	return t.(string), nil
}

// rememberType caches an object's type learned from a received row.
func (c *Client) rememberType(n *Node) {
	if n != nil && n.Type != "" {
		c.types.Put(typeKey(n.ObID), cache.Entry{Value: internType(n.Type)})
	}
}

// rememberTypes caches the types of the nodes walk visits (at most n),
// leaving the store as rememberType of each in turn would: past the
// store's bound only the last Cap() distinct ids survive those puts, so
// of more nodes only they are put, oldest first.
func (c *Client) rememberTypes(n int, walk func(func(*Node))) {
	limit := c.types.Cap()
	if n <= limit {
		walk(c.rememberType)
		return
	}
	nodes := make([]*Node, 0, n)
	walk(func(nd *Node) { nodes = append(nodes, nd) })
	last, seen := make([]*Node, 0, limit), make(map[int64]bool, limit) // newest first
	for i := len(nodes) - 1; i >= 0 && len(last) < limit; i-- {
		if nd := nodes[i]; nd != nil && nd.Type != "" && !seen[nd.ObID] {
			seen[nd.ObID] = true
			last = append(last, nd)
		}
	}
	for i := len(last) - 1; i >= 0; i-- {
		c.rememberType(last[i])
	}
}
