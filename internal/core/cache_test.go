package core_test

import (
	"context"
	"testing"

	"pdmtune/internal/core"
	"pdmtune/internal/costmodel"
	"pdmtune/internal/workload"
)

// TestCachedMLEAllWireModes: under both navigational strategies and
// every wire mode (plain, batched, prepared), a warm cached MLE
// returns exactly the cold tree, costs at most the validate round
// trip, and serves every page locally.
func TestCachedMLEAllWireModes(t *testing.T) {
	srv, prod := generatedServer(t, workload.Config{
		Depth: 3, Branch: 4, Sigma: 0.5, Seed: 7, PadBytes: 16,
	})
	ctx := context.Background()
	for _, strat := range []costmodel.Strategy{costmodel.LateEval, costmodel.EarlyEval} {
		for _, batched := range []bool{false, true} {
			for _, prepared := range []bool{false, true} {
				c, meter := pdmClient(srv, core.StandardRules(), core.DefaultUser("scott"), strat)
				tune(c, func(k *costmodel.Knobs) { k.Batching, k.Prepared, k.CacheEntries = batched, prepared, 1<<12 })
				cold, err := c.MultiLevelExpand(ctx, prod.RootID)
				if err != nil {
					t.Fatalf("%v b=%v p=%v: cold MLE: %v", strat, batched, prepared, err)
				}
				before := meter.Metrics
				warm, err := c.MultiLevelExpand(ctx, prod.RootID)
				if err != nil {
					t.Fatalf("%v b=%v p=%v: warm MLE: %v", strat, batched, prepared, err)
				}
				d := meter.Metrics.Sub(before)
				if d.RoundTrips > 1 || d.ValidateRoundTrips != 1 {
					t.Errorf("%v b=%v p=%v: warm MLE cost %d round trips (%d validate), want 1 validate only",
						strat, batched, prepared, d.RoundTrips, d.ValidateRoundTrips)
				}
				if d.CacheMisses != 0 || d.CacheHits == 0 {
					t.Errorf("%v b=%v p=%v: warm MLE hits=%d misses=%d", strat, batched, prepared, d.CacheHits, d.CacheMisses)
				}
				idsC, idsW := visibleIDs(cold.Tree), visibleIDs(warm.Tree)
				if len(idsC) != len(idsW) {
					t.Fatalf("%v b=%v p=%v: warm sees %d nodes, cold %d", strat, batched, prepared, len(idsW), len(idsC))
				}
				for i := range idsC {
					if idsC[i] != idsW[i] {
						t.Fatalf("%v b=%v p=%v: node %d differs: %d != %d", strat, batched, prepared, i, idsW[i], idsC[i])
					}
				}
				if warm.RowsReceived != 0 {
					t.Errorf("%v b=%v p=%v: warm MLE received %d rows over the wire", strat, batched, prepared, warm.RowsReceived)
				}
			}
		}
	}
}

// TestCachedExpandAfterRawWrite: validate-on-use catches even writes
// the client performed outside the action machinery (raw Exec), which
// the local invalidation cannot see.
func TestCachedExpandAfterRawWrite(t *testing.T) {
	srv := pdmServer(t)
	ctx := context.Background()
	c, meter := pdmClient(srv, core.StandardRules(), core.DefaultUser("scott"), costmodel.EarlyEval)
	tune(c, func(k *costmodel.Knobs) { k.CacheEntries = 256 })
	if _, err := c.Expand(ctx, 1); err != nil {
		t.Fatal(err)
	}
	warm, err := c.Expand(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Metrics.CacheHits == 0 {
		t.Fatal("second expand not served from cache")
	}
	// A raw write touching a child of 1 stales the cached page.
	if _, err := c.Exec(ctx, "UPDATE assy SET state = 'draft' WHERE obid = 2"); err != nil {
		t.Fatal(err)
	}
	before := meter.Metrics
	res, err := c.Expand(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := meter.Metrics.Sub(before)
	if d.CacheMisses == 0 {
		t.Error("expand after raw write served stale cached page")
	}
	found := false
	for _, ch := range res.Tree.Root.Children {
		if ch.ObID == 2 && ch.State == "draft" {
			found = true
		}
	}
	if !found {
		t.Error("refetched expand does not reflect the raw write")
	}
}
