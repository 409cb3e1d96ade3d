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

// typeAction is the cache-key action discriminator of type entries.
// The NUL byte keeps it disjoint from every PDM action name.
const typeAction = "\x00type"

// typeKey returns the cache key of an object's type entry. Types are
// objective — independent of user, rules and strategy — so the
// profile carries only the server namespace and sessions of one
// system sharing a store share the lookups.
func (c *Client) typeKey(obid int64) cache.Key {
	return cache.Key{ID: obid, Action: typeAction, Profile: c.cacheNS}
}

// LookupType resolves the actual type of an object (the paper's
// object tables assy and comp). Cached results cost nothing; the
// first lookup of an unknown id is one WAN statement. An id found in
// neither table is an error, not an empty assembly.
func (w *wireFetcher) LookupType(ctx context.Context, obid int64) (string, error) {
	c := w.c
	if e, ok := c.types.Get(c.typeKey(obid)); ok {
		return e.Value.(string), nil
	}
	resp, err := w.exec(ctx, c.request(typeLookupStmt, obid))
	if err != nil {
		return "", err
	}
	if len(resp.Rows) == 0 || len(resp.Rows[0]) == 0 {
		return "", fmt.Errorf("core: object %d does not exist", obid)
	}
	t := internType(resp.Rows[0][0].String())
	c.types.Put(c.typeKey(obid), cache.Entry{Value: t})
	return t.(string), nil
}

// rememberType caches an object's type learned from a received row.
func (c *Client) rememberType(n *Node) {
	if n != nil && n.Type != "" {
		c.types.Put(c.typeKey(n.ObID), cache.Entry{Value: internType(n.Type)})
	}
}
