package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pdmtune/internal/cache"
)

// TestRememberTypesMatchesOneByOne: for generated batches of nodes with
// repeated ids (and nodes without a type, which are never put), the
// type store rememberTypes leaves equals the store fed every node one by
// one: the same ids, the same types, and the same eviction order, probed
// by pushing up to Cap() fresh ids into a rebuilt pair of stores and
// checking the same ids have left both. Batches run from empty to three
// times the bound, into stores that already hold entries.
func TestRememberTypesMatchesOneByOne(t *testing.T) {
	const bound, domain = 8, 14
	types := []string{typeAssy, typeComp, ""}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		node := func() Node { return Node{ObID: 1 + rng.Int63n(domain), Type: types[rng.Intn(len(types))]} }
		before := make([]Node, rng.Intn(bound+1))
		for i := range before {
			before[i] = node()
		}
		batch := make([]Node, rng.Intn(3*bound+1))
		for i := range batch {
			batch[i] = node()
		}
		build := func(helper bool) *Client {
			c := &Client{types: cache.New(bound)}
			for i := range before {
				c.rememberType(&before[i])
			}
			if !helper {
				for i := range batch {
					c.rememberType(&batch[i])
				}
				return c
			}
			c.rememberTypes(len(batch), func(yield func(*Node)) {
				for i := range batch {
					yield(&batch[i])
				}
			})
			return c
		}
		// held lists, per id of the domain, the type the store holds.
		held := func(c *Client) string {
			var s string
			for id := int64(1); id <= domain; id++ {
				if e, ok := c.types.Get(typeKey(id)); ok {
					s += fmt.Sprintf("%d:%v ", id, e.Value)
				}
			}
			return s
		}
		if one, all := held(build(false)), held(build(true)); one != all {
			t.Fatalf("seed %d, %d nodes into %d held: one by one the store holds %s, rememberTypes leaves %s", seed, len(batch), len(before), one, all)
		}
		for fresh := 1; fresh <= bound; fresh++ {
			one, all := build(false), build(true)
			for _, c := range []*Client{one, all} {
				for id := int64(0); id < int64(fresh); id++ {
					c.rememberType(&Node{ObID: 1000 + id, Type: typeAssy})
				}
			}
			if a, b := held(one), held(all); a != b {
				t.Fatalf("seed %d, after %d fresh ids: one by one the store keeps %s, after rememberTypes %s", seed, fresh, a, b)
			}
		}
	}
}
