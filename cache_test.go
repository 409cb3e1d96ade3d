package pdmtune_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pdmtune"
)

// TestCachedMLEAcceptanceD7B5 is the acceptance scenario of the
// structure cache: on the paper's δ=7, β=5, σ=0.6 product (the
// intercontinental "half an hour" workload), a repeated MLE with a
// warm cache costs at most one round trip — the validate exchange —
// against ~9 for the batched cold run, with an identical visible
// tree. After a check-out touches the structure, the next MLE detects
// the staleness through the validate exchange and re-fetches; once
// warm again, it is back to one round trip.
func TestCachedMLEAcceptanceD7B5(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(pdmtune.ProductConfig{
		Depth: 7, Branch: 5, Sigma: 0.6, Seed: 2001,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess, err := sys.Open(
		pdmtune.WithLink(pdmtune.Intercontinental()),
		pdmtune.WithUser(pdmtune.DefaultUser("engineer")),
		pdmtune.WithStrategy(pdmtune.EarlyEval),
		pdmtune.WithBatching(true),
		pdmtune.WithCache(1<<20),
	)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Visible != prod.VisibleNodes() {
		t.Fatalf("cold visible = %d, ground truth %d", cold.Visible, prod.VisibleNodes())
	}

	warm, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Metrics.RoundTrips > 1 {
		t.Fatalf("warm MLE cost %d round trips, want <= 1 (the validate exchange); cold cost %d",
			warm.Metrics.RoundTrips, cold.Metrics.RoundTrips)
	}
	if warm.Metrics.ValidateRoundTrips != 1 {
		t.Errorf("warm MLE validate round trips = %d, want 1", warm.Metrics.ValidateRoundTrips)
	}
	if warm.Metrics.RoundTrips >= cold.Metrics.RoundTrips {
		t.Fatalf("warm %d round trips not below cold %d", warm.Metrics.RoundTrips, cold.Metrics.RoundTrips)
	}
	idsCold, idsWarm := treeIDs(t, cold), treeIDs(t, warm)
	if len(idsCold) != len(idsWarm) {
		t.Fatalf("warm tree has %d nodes, cold %d", len(idsWarm), len(idsCold))
	}
	for i := range idsCold {
		if idsCold[i] != idsWarm[i] {
			t.Fatalf("tree differs at %d: warm %d != cold %d", i, idsWarm[i], idsCold[i])
		}
	}
	if warm.Metrics.CacheHits == 0 || warm.Metrics.ResponseBytes >= cold.Metrics.ResponseBytes {
		t.Errorf("warm run: hits=%d response bytes %.0f (cold %.0f) — cache did not serve",
			warm.Metrics.CacheHits, warm.Metrics.ResponseBytes, cold.Metrics.ResponseBytes)
	}
	t.Logf("δ=7/β=5 MLE: cold %d rt / %.0f KiB, warm %d rt / %.0f KiB (%d hits)",
		cold.Metrics.RoundTrips, cold.Metrics.VolumeBytes()/1024,
		warm.Metrics.RoundTrips, warm.Metrics.VolumeBytes()/1024, warm.Metrics.CacheHits)

	// A write from a different session bumps every touched object's
	// version: the next MLE must detect the staleness and re-fetch.
	writer, err := sys.Open(pdmtune.WithLink(pdmtune.Intercontinental()),
		pdmtune.WithUser(pdmtune.DefaultUser("writer")))
	if err != nil {
		t.Fatal(err)
	}
	co, err := writer.CheckOutViaProcedure(ctx, prod.RootID)
	if err != nil || !co.Granted {
		t.Fatalf("writer check-out: %+v, %v", co, err)
	}
	stale, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Metrics.RoundTrips <= 1 {
		t.Fatalf("post-write MLE cost %d round trips — staleness was not detected", stale.Metrics.RoundTrips)
	}
	checkedOut := 0
	stale.Tree.Walk(func(n *pdmtune.Node) {
		if n.CheckedOut {
			checkedOut++
		}
	})
	if checkedOut == 0 {
		t.Error("post-write MLE does not reflect the check-out — cache served stale data")
	}

	// Unchanged again: back to one round trip.
	rewarm, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	if rewarm.Metrics.RoundTrips > 1 {
		t.Errorf("re-warmed MLE cost %d round trips, want <= 1", rewarm.Metrics.RoundTrips)
	}
}

// TestOwnCheckOutAndCheckInRetireCachedPages: a session's own
// check-out and check-in retire its cached pages locally, so its next
// MLE re-fetches them — with no validate round trip for the retired
// pages — and reflects the flags.
func TestOwnCheckOutAndCheckInRetireCachedPages(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(pdmtune.ProductConfig{
		Depth: 3, Branch: 3, Sigma: 1, Seed: 11, PadBytes: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess, err := sys.Open(
		pdmtune.WithLink(pdmtune.Intercontinental()),
		pdmtune.WithUser(pdmtune.DefaultUser("engineer")),
		pdmtune.WithStrategy(pdmtune.EarlyEval),
		pdmtune.WithBatching(true),
		pdmtune.WithCache(1<<16),
	)
	if err != nil {
		t.Fatal(err)
	}
	// refetched runs a warm MLE after a write and checks that it served
	// nothing from the store and validated nothing.
	refetched := func(step string) *pdmtune.ActionResult {
		t.Helper()
		res, err := sess.MultiLevelExpand(ctx, prod.RootID)
		if err != nil {
			t.Fatal(err)
		}
		if m := res.Metrics; m.CacheHits != 0 || m.CacheMisses == 0 || m.ValidateRoundTrips != 0 {
			t.Errorf("MLE after %s: hits=%d misses=%d validate round trips=%d, want every page retired locally",
				step, m.CacheHits, m.CacheMisses, m.ValidateRoundTrips)
		}
		return res
	}
	flagged := func(res *pdmtune.ActionResult) int {
		n := 0
		res.Tree.Walk(func(nd *pdmtune.Node) {
			if nd.CheckedOut {
				n++
			}
		})
		return n
	}

	if _, err := sess.MultiLevelExpand(ctx, prod.RootID); err != nil {
		t.Fatal(err)
	}
	co, err := sess.CheckOut(ctx, prod.RootID)
	if err != nil || !co.Granted || co.Updated == 0 {
		t.Fatalf("check-out: %+v, %v", co, err)
	}
	// The navigational root node carries no fetched flags (the paper
	// treats the root as already at the client), so the MLE sees every
	// checked-out node except the root.
	if n := flagged(refetched("check-out")); n != co.Updated-1 {
		t.Fatalf("MLE sees %d checked-out nodes after the check-out, want %d", n, co.Updated-1)
	}

	if _, err := sess.MultiLevelExpand(ctx, prod.RootID); err != nil { // warm again
		t.Fatal(err)
	}
	ci, err := sess.CheckIn(ctx, prod.RootID)
	if err != nil || ci.Updated == 0 {
		t.Fatalf("check-in: %+v, %v", ci, err)
	}
	if n := flagged(refetched("check-in")); n != 0 {
		t.Errorf("MLE sees %d checked-out nodes after the check-in", n)
	}
}

// TestOtherSessionsWritesReachPrivateCaches: a check-out or check-in
// by another session never retires a reader's private pages locally;
// the reader's next MLE finds the staleness through its one validate
// exchange, re-fetches and reflects the flags. Concurrent readers,
// each on its own store, and a writer then interleave freely (run with
// -race); once they quiesce, every reader's next MLE matches an
// uncached session's tree.
func TestOtherSessionsWritesReachPrivateCaches(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(pdmtune.ProductConfig{
		Depth: 3, Branch: 3, Sigma: 1, Seed: 11, PadBytes: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	open := func(name string, extra ...pdmtune.Option) *pdmtune.Session {
		t.Helper()
		s, err := sys.Open(append([]pdmtune.Option{
			pdmtune.WithLink(pdmtune.Intercontinental()),
			pdmtune.WithUser(pdmtune.DefaultUser(name)),
			pdmtune.WithStrategy(pdmtune.EarlyEval),
			pdmtune.WithBatching(true),
		}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	reader := open("reader", pdmtune.WithCache(1<<16))
	writer := open("writer")
	mle := func(s *pdmtune.Session) *pdmtune.ActionResult {
		t.Helper()
		res, err := s.MultiLevelExpand(ctx, prod.RootID)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// revalidated runs the reader's MLE after the writer's change and
	// checks that the staleness was found by the validate exchange.
	revalidated := func(step string) int {
		t.Helper()
		res := mle(reader)
		if m := res.Metrics; m.ValidateRoundTrips != 1 || m.CacheMisses == 0 {
			t.Errorf("reader's MLE after the writer's %s: validate round trips=%d misses=%d, want 1 and some",
				step, m.ValidateRoundTrips, m.CacheMisses)
		}
		n := 0
		res.Tree.Walk(func(nd *pdmtune.Node) {
			if nd.CheckedOut {
				n++
			}
		})
		return n
	}

	mle(reader)
	co, err := writer.CheckOut(ctx, prod.RootID)
	if err != nil || !co.Granted || co.Updated == 0 {
		t.Fatalf("writer check-out: %+v, %v", co, err)
	}
	// The navigational root node carries no fetched flags, so the
	// reader sees every checked-out node except the root.
	if n := revalidated("check-out"); n != co.Updated-1 {
		t.Fatalf("reader sees %d checked-out nodes after the writer's check-out, want %d", n, co.Updated-1)
	}
	mle(reader) // warm again
	ci, err := writer.CheckIn(ctx, prod.RootID)
	if err != nil || ci.Updated == 0 {
		t.Fatalf("writer check-in: %+v, %v", ci, err)
	}
	if n := revalidated("check-in"); n != 0 {
		t.Errorf("reader sees %d checked-out nodes after the writer's check-in", n)
	}

	readers := make([]*pdmtune.Session, 4)
	for i := range readers {
		readers[i] = open(fmt.Sprintf("reader%d", i), pdmtune.WithCache(1<<16))
	}
	var wg sync.WaitGroup
	for i, s := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := s.MultiLevelExpand(ctx, prod.RootID); err != nil {
					t.Errorf("concurrent reader %d: %v", i, err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 3; j++ {
			co, err := writer.CheckOut(ctx, prod.RootID)
			if err != nil {
				t.Errorf("concurrent writer check-out: %v", err)
				return
			}
			if co.Granted {
				if _, err := writer.CheckIn(ctx, prod.RootID); err != nil {
					t.Errorf("concurrent writer check-in: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()

	want := treeBytes(t, mle(open("reference")))
	for i, s := range readers {
		if got := treeBytes(t, mle(s)); got != want {
			t.Errorf("reader %d after quiescing:\n%s\nuncached tree\n%s", i, got, want)
		}
	}
}

// TestCacheLRUEvictionBound: the cache never holds more entries than
// configured, whatever the workload.
func TestCacheLRUEvictionBound(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(pdmtune.ProductConfig{
		Depth: 3, Branch: 4, Sigma: 1, Seed: 4, PadBytes: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	const bound = 8
	sess, err := sys.Open(
		pdmtune.WithUser(pdmtune.DefaultUser("u")),
		pdmtune.WithStrategy(pdmtune.EarlyEval),
		pdmtune.WithBatching(true),
		pdmtune.WithCache(bound),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Cache().Cap() != bound {
		t.Fatalf("cache cap = %d, want %d", sess.Cache().Cap(), bound)
	}
	// The MLE caches far more than `bound` pages (21 parents) — the
	// store must stay at the bound throughout.
	if _, err := sess.MultiLevelExpand(context.Background(), prod.RootID); err != nil {
		t.Fatal(err)
	}
	if n := sess.Cache().Len(); n > bound {
		t.Fatalf("cache holds %d entries, bound is %d", n, bound)
	}
	// And it still answers correctly (partially warm, partially
	// re-fetched).
	res, err := sess.MultiLevelExpand(context.Background(), prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visible != prod.VisibleNodes() {
		t.Fatalf("visible = %d after eviction churn, want %d", res.Visible, prod.VisibleNodes())
	}
	if n := sess.Cache().Len(); n > bound {
		t.Fatalf("cache holds %d entries, bound is %d", n, bound)
	}
}

// TestCachedRecursiveMLE: the recursive strategy caches whole trees —
// the warm run costs one validate exchange instead of re-shipping the
// result set, with an identical tree.
func TestCachedRecursiveMLE(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	if err := sys.LoadPaperExample(); err != nil {
		t.Fatal(err)
	}
	sess, err := sys.Open(
		pdmtune.WithUser(pdmtune.DefaultUser("scott")),
		pdmtune.WithStrategy(pdmtune.Recursive),
		pdmtune.WithCache(64),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cold, err := sess.MultiLevelExpand(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sess.MultiLevelExpand(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Metrics.RoundTrips != 1 || warm.Metrics.ValidateRoundTrips != 1 {
		t.Fatalf("warm recursive MLE: %d round trips (%d validate), want exactly the validate exchange",
			warm.Metrics.RoundTrips, warm.Metrics.ValidateRoundTrips)
	}
	if warm.Metrics.ResponseBytes >= cold.Metrics.ResponseBytes {
		t.Errorf("warm response bytes %.0f not below cold %.0f",
			warm.Metrics.ResponseBytes, cold.Metrics.ResponseBytes)
	}
	idsCold, idsWarm := treeIDs(t, cold), treeIDs(t, warm)
	if len(idsCold) != len(idsWarm) {
		t.Fatalf("warm tree has %d nodes, cold %d", len(idsWarm), len(idsCold))
	}
	for i := range idsCold {
		if idsCold[i] != idsWarm[i] {
			t.Fatalf("tree differs at %d: %d != %d", i, idsWarm[i], idsCold[i])
		}
	}
}

// TestPrivateCacheFollowsStrategyAndRules: a private store holds
// entries of one strategy and one rule-table generation. After the
// session switches strategy, and again after a restricting rule is
// added mid-session, the next MLE serves nothing from the store and
// its tree is byte-identical to an uncached session's at the same
// configuration.
func TestPrivateCacheFollowsStrategyAndRules(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	if err := sys.LoadPaperExample(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rules := pdmtune.StandardRules()
	opts := func(s pdmtune.Strategy) []pdmtune.Option {
		return []pdmtune.Option{pdmtune.WithUser(pdmtune.DefaultUser("scott")),
			pdmtune.WithStrategy(s), pdmtune.WithBatching(true), pdmtune.WithRules(rules)}
	}
	sess, err := sys.Open(append(opts(pdmtune.EarlyEval), pdmtune.WithCache(1<<10))...)
	if err != nil {
		t.Fatal(err)
	}
	mle := func(s *pdmtune.Session) *pdmtune.ActionResult {
		t.Helper()
		res, err := s.MultiLevelExpand(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	warmUp := func(step string) {
		t.Helper()
		mle(sess)
		if hits := mle(sess).Metrics.CacheHits; hits == 0 {
			t.Fatalf("%s: the repeated MLE had no cache hits", step)
		}
	}
	// matchesUncached checks the cached session's next MLE against an
	// uncached session opened at the same strategy and rules.
	matchesUncached := func(step string, s pdmtune.Strategy) *pdmtune.ActionResult {
		t.Helper()
		got := mle(sess)
		if got.Metrics.CacheHits != 0 {
			t.Errorf("%s: first MLE served %d cache hits", step, got.Metrics.CacheHits)
		}
		ref, err := sys.Open(opts(s)...)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := treeBytes(t, got), treeBytes(t, mle(ref)); g != w {
			t.Errorf("%s: cached tree\n%s\nuncached tree\n%s", step, g, w)
		}
		return got
	}

	warmUp("early evaluation")
	k := sess.TuneConfig()
	k.Strategy = pdmtune.LateEval
	if err := sess.ApplyConfig(ctx, k); err != nil {
		t.Fatal(err)
	}
	full := matchesUncached("after ApplyConfig", pdmtune.LateEval)

	warmUp("late evaluation")
	sess.Client().Rules().MustAdd(pdmtune.Rule{
		User: "scott", Action: "multi-level-expand", ObjType: "assy",
		Kind: pdmtune.KindRow, Cond: "assy.make_or_buy <> 'buy'",
	})
	lim := matchesUncached("after a rule was added", pdmtune.LateEval)
	if lim.Visible >= full.Visible {
		t.Errorf("the added rule hid nothing: %d nodes visible, %d before", lim.Visible, full.Visible)
	}
}
