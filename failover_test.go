package pdmtune_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdmtune"
	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
)

// treeBytes serializes an expand result (via the shared flattenTree
// helper) for byte-identical comparisons across failovers.
func treeBytes(t *testing.T, res *pdmtune.ActionResult) string {
	t.Helper()
	if res == nil || res.Tree == nil {
		t.Fatal("action returned no tree")
	}
	return string(flattenTree(res.Tree))
}

// killPlanWrapper installs a fault injector on every transport the
// cluster builds toward the named target, all sharing one plan — so
// one Kill models the target's process death.
func killPlanWrapper(cl *pdmtune.Cluster, target string) *netsim.FaultPlan {
	plan := &netsim.FaultPlan{}
	cl.SetTransportWrapper(func(tgt string, tr pdmtune.Transport) pdmtune.Transport {
		if tgt == target {
			return netsim.NewFaultInjector(tr, plan)
		}
		return tr
	})
	return plan
}

// TestTransientFaultsMidMLERecover: connection drops in the middle of
// a multi-level expand are retried transparently (reads are
// idempotent) and the tree is byte-identical to an undisturbed run.
func TestTransientFaultsMidMLERecover(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 4, Branch: 3, Sigma: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var injectors []*netsim.FaultInjector
	cl.SetTransportWrapper(func(target string, tr pdmtune.Transport) pdmtune.Transport {
		if target == pdmtune.PrimarySite {
			fi := netsim.NewFaultInjector(tr, nil)
			injectors = append(injectors, fi)
			return fi
		}
		return tr
	})
	sess, err := cl.OpenAt(ctx, pdmtune.PrimarySite, pdmtune.WithLink(pdmtune.LAN()))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	undisturbed, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	want := treeBytes(t, undisturbed)
	for _, fi := range injectors {
		fi.FailNext(2)
	}
	disturbed, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatalf("MLE with injected connection drops: %v", err)
	}
	if got := treeBytes(t, disturbed); got != want {
		t.Fatal("tree differs after mid-MLE connection drops")
	}
	if m := sess.Metrics(); m.Retries == 0 {
		t.Fatal("no retries recorded — the faults were not exercised")
	}
}

// TestKillPrimaryFailover: the primary dies; the health checker
// detects it and auto-promotes the best replica; reads keep flowing
// throughout, the tree after failover is byte-identical, and writes
// resume against the new primary through the already-open session.
func TestKillPrimaryFailover(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"}, pdmtune.SiteConfig{Name: "tokyo"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 4, Branch: 3, Sigma: 0.7, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	plan := killPlanWrapper(cl, pdmtune.PrimarySite)

	sess, err := cl.OpenAt(ctx, "munich")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	before, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	want := treeBytes(t, before)

	// A write before the outage works (and is undone so the tree stays
	// comparable).
	if res, err := sess.CheckOut(ctx, prod.RootID); err != nil || !res.Granted {
		t.Fatalf("pre-outage check-out: %+v, %v", res, err)
	}
	if res, err := sess.CheckIn(ctx, prod.RootID); err != nil || !res.Granted {
		t.Fatalf("pre-outage check-in: %+v, %v", res, err)
	}
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}

	plan.Kill()

	// Writes fail structurally while the cluster is primary-less —
	// never silently, never retried.
	var cce *pdmtune.ConnClosedError
	if _, err := sess.CheckOut(ctx, prod.RootID); !errors.As(err, &cce) {
		t.Fatalf("write into dead primary: %v, want *ConnClosedError", err)
	}
	// Reads at the replica keep flowing.
	if _, err := sess.Expand(ctx, prod.RootID); err != nil {
		t.Fatalf("replica read during outage: %v", err)
	}

	// The health checker crosses its threshold; the third failed probe
	// triggers PromoteBest synchronously, which ends by resetting the
	// checker onto the (healthy) new primary — so Down() is false again
	// and a fresh probe succeeds.
	ck := cl.WatchPrimary(pdmtune.HealthConfig{Threshold: 3})
	for i := 0; i < 3; i++ {
		ck.CheckNow(ctx)
	}
	if name := cl.PrimaryName(); name != "munich" && name != "tokyo" {
		t.Fatalf("PrimaryName = %q after auto-failover", name)
	}
	ck.CheckNow(ctx)
	if ck.Down() || ck.Failures() != 0 {
		t.Fatalf("checker not healthy against the new primary: down=%v failures=%d", ck.Down(), ck.Failures())
	}
	if cl.Term() != 2 {
		t.Fatalf("Term = %d after one promotion, want 2", cl.Term())
	}

	// The tree after failover is byte-identical to the pre-outage one.
	after, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatalf("MLE after failover: %v", err)
	}
	if got := treeBytes(t, after); got != want {
		t.Fatal("tree differs after failover")
	}

	// The open session's writes were re-routed transparently.
	if res, err := sess.CheckOut(ctx, prod.RootID); err != nil || !res.Granted {
		t.Fatalf("post-failover check-out: %+v, %v", res, err)
	}
	if res, err := sess.CheckIn(ctx, prod.RootID); err != nil || !res.Granted {
		t.Fatalf("post-failover check-in: %+v, %v", res, err)
	}
	if hm := cl.HealthMetrics(); hm.HealthProbes < 3 || hm.ProbeFailures < 3 {
		t.Fatalf("health metrics = %d probes / %d failures, want >= 3/3", hm.HealthProbes, hm.ProbeFailures)
	}
}

// TestPromoteUnderConcurrentWriters: a planned failover races real
// check-out/check-in traffic. Every acknowledged write survives:
// writers only see structured, retryable errors, and after the dust
// settles the primary, the replicas and the rejoined old primary hold
// identical databases with every subtree checked back in.
func TestPromoteUnderConcurrentWriters(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"}, pdmtune.SiteConfig{Name: "tokyo"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 3, Sigma: 0.7, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}

	const writers, iters = 3, 6
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			site := []string{pdmtune.PrimarySite, "munich", "tokyo"}[w%3]
			opts := []pdmtune.Option{}
			if site == pdmtune.PrimarySite {
				opts = append(opts, pdmtune.WithLink(pdmtune.LAN()))
			}
			sess, err := cl.OpenAt(ctx, site, opts...)
			if err != nil {
				errCh <- err
				return
			}
			defer sess.Close()
			acked := 0
			spins := 0
			for i := 0; i < iters; {
				res, err := sess.CheckOut(ctx, prod.RootID)
				if err != nil {
					if retryableWriteErr(err) {
						if spins++; spins > 20000 {
							errCh <- fmt.Errorf("writer %d: wedged retrying check-out: %v", w, err)
							return
						}
						continue
					}
					errCh <- fmt.Errorf("writer %d: check-out: %w", w, err)
					return
				}
				if !res.Granted {
					if spins++; spins > 20000 {
						errCh <- fmt.Errorf("writer %d: wedged on denied check-out (updated=%d)", w, res.Updated)
						return
					}
					continue // another writer holds the subtree
				}
				spins = 0
				acked++
				for {
					res, err = sess.CheckIn(ctx, prod.RootID)
					if err != nil {
						if retryableWriteErr(err) {
							continue
						}
						errCh <- fmt.Errorf("writer %d: check-in: %w", w, err)
						return
					}
					break
				}
				if !res.Granted {
					errCh <- fmt.Errorf("writer %d: check-in of own check-out denied", w)
					return
				}
				acked++
				i++
			}
			if acked == 0 {
				errCh <- fmt.Errorf("writer %d: no write ever acknowledged", w)
			}
		}(w)
	}

	// Promote mid-traffic; in-flight candidate writes make the precheck
	// refuse, so spin until the window opens.
	var promoteErr error
	for {
		promoteErr = cl.Promote(ctx, "tokyo")
		var pe *pdmtune.PromoteError
		if errors.As(promoteErr, &pe) && pe.Stage == "inflight" {
			continue
		}
		break
	}
	if promoteErr != nil {
		t.Fatalf("Promote under writers: %v", promoteErr)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if cl.PrimaryName() != "tokyo" || cl.Term() != 2 {
		t.Fatalf("after promotion: primary=%q term=%d", cl.PrimaryName(), cl.Term())
	}
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Rejoin(ctx); err != nil {
		t.Fatal(err)
	}

	newPrimary, err := cl.OpenAt(ctx, "tokyo")
	if err != nil {
		t.Fatal(err)
	}
	defer newPrimary.Close()
	want := dumpVia(t, newPrimary)
	for _, site := range []string{"munich", pdmtune.DemotedPrimarySite} {
		sess, err := cl.OpenAt(ctx, site)
		if err != nil {
			t.Fatalf("open at %s: %v", site, err)
		}
		if got := dumpVia(t, sess); got != want {
			t.Errorf("site %s diverged from the new primary after promotion", site)
		}
		sess.Close()
	}
	// Every acknowledged check-out was paired with an acknowledged
	// check-in, so nothing may be left checked out anywhere.
	resp, err := newPrimary.Exec(ctx, "SELECT obid FROM assy WHERE checkedout = TRUE")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 0 {
		t.Fatalf("%d assemblies left checked out — an acknowledged check-in was lost", len(resp.Rows))
	}
}

// retryableWriteErr classifies the errors a writer may legally see
// during a promotion: a fence refusal (the write provably never
// executed) or a lost write race.
func retryableWriteErr(err error) bool {
	var fe *pdmtune.FencedError
	var ce *pdmtune.ConflictError
	return errors.As(err, &fe) || errors.As(err, &ce)
}

// TestSplitBrainRejection: after an unplanned failover the deposed
// primary refuses stale writes with *FencedError (as does the new
// primary for stale-term clients), and Rejoin discards its divergent
// tail and converges it to the new primary's state.
func TestSplitBrainRejection(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 2, Sigma: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	plan := killPlanWrapper(cl, pdmtune.PrimarySite)

	// An acknowledged write the replica never saw: the unavoidable loss
	// window of asynchronous replication — Rejoin must erase it, not
	// resurrect it as a divergent timeline.
	psess, err := cl.OpenAt(ctx, pdmtune.PrimarySite, pdmtune.WithLink(pdmtune.LAN()))
	if err != nil {
		t.Fatal(err)
	}
	defer psess.Close()
	if res, err := psess.CheckOut(ctx, prod.RootID); err != nil || !res.Granted {
		t.Fatalf("divergent check-out: %+v, %v", res, err)
	}

	plan.Kill()
	if err := cl.Promote(ctx, "munich"); err != nil {
		t.Fatalf("Promote with dead primary: %v", err)
	}

	// Split brain, side one: a client that still believes term 1 writes
	// to the deposed primary.
	staleTerm := wire.TermSource(func() (uint64, bool) { return 1, true })
	atOld := wire.NewClient(&wire.MeteredChannel{Conn: cl.Primary().Server.NewConn()})
	atOld.SetTermSource(staleTerm)
	var fe *wire.FencedError
	if _, err := atOld.Exec(ctx, "UPDATE assy SET checkedout = TRUE"); !errors.As(err, &fe) {
		t.Fatalf("stale write at deposed primary: %v, want *FencedError", err)
	} else if !fe.Deposed {
		t.Fatalf("FencedError = %+v, want Deposed", fe)
	}
	// Side two: the same stale client against the new primary.
	munich, _ := cl.Site("munich")
	atNew := wire.NewClient(&wire.MeteredChannel{Conn: munich.Server().NewConn()})
	atNew.SetTermSource(staleTerm)
	if _, err := atNew.Exec(ctx, "UPDATE assy SET checkedout = TRUE"); !errors.As(err, &fe) {
		t.Fatalf("stale write at new primary: %v, want *FencedError", err)
	} else if fe.Deposed || fe.ServerTerm != 2 {
		t.Fatalf("FencedError = %+v, want stale-term refusal at term 2", fe)
	}

	// The old primary comes back and rejoins as a replica.
	plan.Revive()
	if _, err := cl.Rejoin(ctx); err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	rejoined, err := cl.OpenAt(ctx, pdmtune.DemotedPrimarySite)
	if err != nil {
		t.Fatal(err)
	}
	defer rejoined.Close()
	newPrimary, err := cl.OpenAt(ctx, "munich")
	if err != nil {
		t.Fatal(err)
	}
	defer newPrimary.Close()
	if dumpVia(t, rejoined) != dumpVia(t, newPrimary) {
		t.Fatal("rejoined old primary did not converge to the new primary")
	}
	// The divergent check-out is gone everywhere.
	resp, err := newPrimary.Exec(ctx, "SELECT obid FROM assy WHERE checkedout = TRUE")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 0 {
		t.Fatal("the divergent timeline's write survived the rejoin")
	}
	// A second Rejoin is refused.
	if _, err := cl.Rejoin(ctx); err == nil {
		t.Fatal("double Rejoin accepted")
	}
	// The rejoined replica keeps up with new-primary writes.
	if res, err := newPrimary.CheckOut(ctx, prod.RootID); err != nil || !res.Granted {
		t.Fatalf("write at new primary after rejoin: %+v, %v", res, err)
	}
	if _, err := cl.SyncSite(ctx, pdmtune.DemotedPrimarySite); err != nil {
		t.Fatal(err)
	}
	if dumpVia(t, rejoined) != dumpVia(t, newPrimary) {
		t.Fatal("rejoined replica fell behind after sync")
	}
}

// TestFailBackToRejoinedPrimary: the deposed original primary rejoins
// and is promoted back. Sessions opened before the first failover follow
// both promotions, their writes land in the original database again, and
// every site converges on it.
func TestFailBackToRejoinedPrimary(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"}, pdmtune.SiteConfig{Name: "tokyo"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 2, Sigma: 1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	atPrimary, err := cl.OpenAt(ctx, pdmtune.PrimarySite, pdmtune.WithLink(pdmtune.LAN()))
	if err != nil {
		t.Fatal(err)
	}
	defer atPrimary.Close()
	atTokyo, err := cl.OpenAt(ctx, "tokyo")
	if err != nil {
		t.Fatal(err)
	}
	defer atTokyo.Close()

	if err := cl.Promote(ctx, "munich"); err != nil {
		t.Fatalf("Promote munich: %v", err)
	}
	if _, err := cl.Rejoin(ctx); err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	if err := cl.Promote(ctx, pdmtune.DemotedPrimarySite); err != nil {
		t.Fatalf("Promote %s: %v", pdmtune.DemotedPrimarySite, err)
	}
	if name, term := cl.PrimaryName(), cl.Term(); name != pdmtune.DemotedPrimarySite || term != 3 {
		t.Fatalf("after fail-back: primary=%q term=%d, want %q at term 3", name, term, pdmtune.DemotedPrimarySite)
	}

	var subtrees []int64
	for _, id := range prod.Nodes[prod.RootID].Children {
		if prod.Nodes[id].Type == "assy" {
			subtrees = append(subtrees, id)
		}
	}
	if len(subtrees) < 2 {
		t.Fatalf("product has %d level-1 assemblies, want 2", len(subtrees))
	}
	for i, sess := range []*pdmtune.Session{atPrimary, atTokyo} {
		if res, err := sess.CheckOut(ctx, subtrees[i]); err != nil || !res.Granted {
			t.Fatalf("check-out from the %s session after fail-back: %+v, %v", sess.Site(), res, err)
		}
	}
	res, err := cl.Primary().DB.NewSession().Query("SELECT obid FROM assy WHERE checkedout = TRUE")
	if err != nil {
		t.Fatal(err)
	}
	landed := map[int64]bool{}
	for _, row := range res.Rows {
		landed[row[0].Int()] = true
	}
	for _, id := range subtrees[:2] {
		if !landed[id] {
			t.Errorf("check-out of %d did not land in the original primary's database", id)
		}
	}

	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	want := dumpVia(t, atPrimary)
	for _, site := range cl.SiteNames() {
		sess, err := cl.OpenAt(ctx, site)
		if err != nil {
			t.Fatalf("open at %s: %v", site, err)
		}
		if dumpVia(t, sess) != want {
			t.Errorf("site %s diverged from the primary after fail-back", site)
		}
		sess.Close()
	}
}

// TestRejoinWhileSitesAreRead: the site registry is read — syncs, site
// lookups, listings, metrics — while Rejoin adds the deposed primary to
// it (run with -race).
func TestRejoinWhileSitesAreRead(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"}, pdmtune.SiteConfig{Name: "tokyo"})
	if _, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 2, Branch: 2, Sigma: 1, Seed: 19}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cl.Promote(ctx, "munich"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			if _, err := cl.SyncSite(ctx, "tokyo"); err != nil {
				t.Error(err)
				return
			}
			_ = cl.SiteNames()
			_, _ = cl.Site("tokyo")
			_ = cl.Metrics()
			if i == 0 {
				close(started)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-started
	if _, err := cl.Rejoin(ctx); err != nil {
		t.Fatalf("Rejoin: %v", err)
	}
	close(stop)
	wg.Wait()
	names := cl.SiteNames()
	if len(names) != 3 || names[2] != pdmtune.DemotedPrimarySite {
		t.Fatalf("SiteNames after Rejoin = %v", names)
	}
}

// TestNeverSyncedSiteBootstrapsFromNewPrimary: a site that never
// synced before the failover bootstraps its full state from the new
// primary.
func TestNeverSyncedSiteBootstrapsFromNewPrimary(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"}, pdmtune.SiteConfig{Name: "osaka"})
	if _, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 3, Sigma: 0.6, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cl.SyncSite(ctx, "munich"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Promote(ctx, "munich"); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	// osaka's first contact with the cluster is after the promotion:
	// its bootstrap pull must come from the new primary.
	osaka, err := cl.OpenAt(ctx, "osaka")
	if err != nil {
		t.Fatalf("bootstrap open after promotion: %v", err)
	}
	defer osaka.Close()
	munich, err := cl.OpenAt(ctx, "munich")
	if err != nil {
		t.Fatal(err)
	}
	defer munich.Close()
	if dumpVia(t, osaka) != dumpVia(t, munich) {
		t.Fatal("never-synced site bootstrapped a different state than the new primary")
	}
}

// TestLoadAfterPromotionLandsOnNewPrimary: Cluster.LoadProduct follows
// the promotion. The product is readable at the new primary and, after
// a sync, at a replica — loaded into the deposed primary's database it
// would be visible nowhere.
func TestLoadAfterPromotionLandsOnNewPrimary(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"}, pdmtune.SiteConfig{Name: "osaka"})
	if _, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 2, Branch: 2, Sigma: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cl.Promote(ctx, "munich"); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 3, Sigma: 1, Seed: 2, ProdID: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SyncSite(ctx, "osaka"); err != nil {
		t.Fatal(err)
	}
	for _, site := range []string{"munich", "osaka"} {
		sess, err := cl.OpenAt(ctx, site)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.MultiLevelExpand(ctx, prod.RootID)
		if err != nil {
			t.Fatalf("%s: MLE of the product loaded after the promotion: %v", site, err)
		}
		if want := prod.VisibleNodes(); res.Visible != want {
			t.Errorf("%s: %d visible nodes of the product loaded after the promotion, want %d", site, res.Visible, want)
		}
		sess.Close()
	}
}

// TestConcurrentSyncAndPromote: replication pulls race a promotion
// (run with -race). Pulls may fail with structured errors during the
// window, but nothing corrupts: afterwards every site converges.
func TestConcurrentSyncAndPromote(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"}, pdmtune.SiteConfig{Name: "tokyo"})
	if _, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 3, Sigma: 0.6, Seed: 13}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, site := range []string{"munich", "tokyo"} {
		wg.Add(1)
		go func(site string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Pulls during the promotion window may be fenced or cut;
				// both are expected and retried by the next iteration.
				_, _ = cl.SyncSite(ctx, site)
			}
		}(site)
	}
	if err := cl.Promote(ctx, "tokyo"); err != nil {
		t.Fatalf("Promote racing syncs: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatalf("SyncAll after promotion: %v", err)
	}
	tokyo, err := cl.OpenAt(ctx, "tokyo")
	if err != nil {
		t.Fatal(err)
	}
	defer tokyo.Close()
	munich, err := cl.OpenAt(ctx, "munich")
	if err != nil {
		t.Fatal(err)
	}
	defer munich.Close()
	if dumpVia(t, munich) != dumpVia(t, tokyo) {
		t.Fatal("sites diverged after promotion racing syncs")
	}
}

// TestPromotePrechecks: the structured refusals of Promote.
func TestPromotePrechecks(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"}, pdmtune.SiteConfig{Name: "tokyo"})
	if _, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 2, Branch: 2, Sigma: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	var pe *pdmtune.PromoteError
	if err := cl.Promote(ctx, "nowhere"); !errors.As(err, &pe) || pe.Stage != "unknown-site" {
		t.Fatalf("unknown site: %v", err)
	}
	// Candidate unreachable: no quorum can include it.
	plan := killPlanWrapper(cl, "tokyo")
	plan.Kill()
	if err := cl.Promote(ctx, "tokyo"); !errors.As(err, &pe) || pe.Stage != "quorum" {
		t.Fatalf("unreachable candidate: %v", err)
	}
	plan.Revive()
	if err := cl.Promote(ctx, "tokyo"); err != nil {
		t.Fatalf("Promote after revive: %v", err)
	}
	if err := cl.Promote(ctx, "tokyo"); !errors.As(err, &pe) || pe.Stage != "already-primary" {
		t.Fatalf("re-promoting the primary: %v", err)
	}
	// A deposed-but-alive old primary means no epochs were lost; the
	// promotion was fenced and caught up, so the replica reads the same
	// state the old primary held.
	if cl.Term() != 2 || cl.PrimaryName() != "tokyo" {
		t.Fatalf("term=%d primary=%q", cl.Term(), cl.PrimaryName())
	}
}

// TestPromoteEpochLagBound: with the old primary dead AND stale
// replicas, the lag bound refuses the promotion (and rolls the fence
// back) unless the caller raises it.
func TestPromoteEpochLagBound(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"}, pdmtune.SiteConfig{Name: "tokyo"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 2, Sigma: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	// munich keeps syncing, tokyo falls behind by a few epochs.
	psess, err := cl.OpenAt(ctx, pdmtune.PrimarySite, pdmtune.WithLink(pdmtune.LAN()))
	if err != nil {
		t.Fatal(err)
	}
	defer psess.Close()
	if res, err := psess.CheckOut(ctx, prod.RootID); err != nil || !res.Granted {
		t.Fatalf("check-out: %+v, %v", res, err)
	}
	if _, err := cl.SyncSite(ctx, "munich"); err != nil {
		t.Fatal(err)
	}
	plan := killPlanWrapper(cl, pdmtune.PrimarySite)
	plan.Kill()
	// tokyo lags munich; with the default zero bound the promotion of
	// tokyo must refuse rather than silently discard epochs.
	var pe *pdmtune.PromoteError
	if err := cl.Promote(ctx, "tokyo"); !errors.As(err, &pe) || pe.Stage != "epoch-lag" {
		t.Fatalf("lagging candidate with dead primary: %v, want epoch-lag refusal", err)
	}
	// The refusal rolled the fence back: munich (current) still works.
	if err := cl.Promote(ctx, "munich"); err != nil {
		t.Fatalf("promoting the caught-up replica: %v", err)
	}
	// Raising the bound is the explicit opt-in to losing those epochs.
	cl.SetPromoteConfig(pdmtune.PromoteConfig{MaxEpochLag: 1 << 30})
	if err := cl.Promote(ctx, "tokyo"); err != nil {
		t.Fatalf("Promote with raised lag bound: %v", err)
	}
	if cl.PrimaryName() != "tokyo" || cl.Term() != 3 {
		t.Fatalf("primary=%q term=%d", cl.PrimaryName(), cl.Term())
	}
}

// TestRerouteKeepsWireEncodings: a session at the primary that a
// promotion re-routes keeps the encodings it negotiated. The new
// primary's connection has never seen the session's hello, so the
// client re-requests the encodings before its first exchange there —
// one round trip — and the next MLE ships compressed columnar frames
// as before instead of v1 rows.
func TestRerouteKeepsWireEncodings(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 4, Branch: 4, Sigma: 0.9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess, err := cl.OpenAt(ctx, pdmtune.PrimarySite,
		pdmtune.WithColumnarResults(true), pdmtune.WithCompression(true))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	caps := sess.WireCaps()
	before, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	if before.Metrics.CompressedFrames == 0 {
		t.Fatalf("MLE before the promotion shipped no compressed frame: %+v", before.Metrics)
	}
	if err := cl.Promote(ctx, "munich"); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	after, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatalf("MLE after the promotion: %v", err)
	}
	if treeBytes(t, after) != treeBytes(t, before) {
		t.Fatal("the re-routed session reads a different tree")
	}
	if got := sess.WireCaps(); got != caps {
		t.Errorf("WireCaps after the re-route = %+v, want %+v", got, caps)
	}
	b, a := before.Metrics, after.Metrics
	if a.CompressedFrames != b.CompressedFrames {
		t.Errorf("MLE after the re-route: %d compressed frames, want %d", a.CompressedFrames, b.CompressedFrames)
	}
	if a.RoundTrips != b.RoundTrips+1 {
		t.Errorf("MLE after the re-route: %d round trips, want %d + 1 hello", a.RoundTrips, b.RoundTrips)
	}
	if a.ResponseBytes > 2*b.ResponseBytes {
		t.Errorf("MLE after the re-route: %.0f response bytes, before %.0f", a.ResponseBytes, b.ResponseBytes)
	}
}

// transportFunc adapts a function to the Transport interface, for
// wrappers that act from inside an exchange.
type transportFunc func(ctx context.Context, req []byte) ([]byte, error)

func (f transportFunc) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	return f(ctx, req)
}

// TestRerouteKeepsPreparedHandlesOnTheirServer: a prepared handle
// names a statement of the server that issued it. A LateEval session
// at munich prepares first, so munich numbers its handles differently
// from the primary and a handle carried across the re-route would name
// another statement there. MLEs of a prepared, batched EarlyEval
// session at the primary run on their own goroutine while munich is
// promoted: every tree is byte-identical, and after the promotion the
// session still executes prepared statements, re-prepared at munich.
func TestRerouteKeepsPreparedHandlesOnTheirServer(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 4, Branch: 3, Sigma: 0.7, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	late, err := cl.OpenAt(ctx, "munich", pdmtune.WithStrategy(pdmtune.LateEval),
		pdmtune.WithPreparedStatements(true), pdmtune.WithBatching(true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := late.MultiLevelExpand(ctx, prod.RootID); err != nil {
		t.Fatal(err)
	}
	late.Close()

	sess, err := cl.OpenAt(ctx, pdmtune.PrimarySite, pdmtune.WithStrategy(pdmtune.EarlyEval),
		pdmtune.WithPreparedStatements(true), pdmtune.WithBatching(true))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	before, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	want := treeBytes(t, before)

	started, promoted := make(chan struct{}), make(chan struct{})
	errCh := make(chan error, 1)
	var mles atomic.Int64
	go func() {
		defer close(errCh)
		for {
			res, err := sess.MultiLevelExpand(ctx, prod.RootID)
			if err != nil {
				errCh <- fmt.Errorf("MLE during the promotion: %w", err)
				return
			}
			if res.Tree == nil || string(flattenTree(res.Tree)) != want {
				errCh <- errors.New("MLE during the promotion read a different tree")
				return
			}
			if mles.Add(1) == 1 {
				close(started)
			}
			select {
			case <-promoted:
				return
			default:
			}
		}
	}()
	select {
	case <-started:
	case err := <-errCh:
		t.Fatal(err)
	}
	promoteErr := cl.Promote(ctx, "munich")
	close(promoted)
	for err := range errCh {
		t.Fatal(err)
	}
	t.Logf("%d MLEs ran beside the promotion", mles.Load())
	if promoteErr != nil {
		t.Fatalf("Promote: %v", promoteErr)
	}
	after, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatalf("MLE after the promotion: %v", err)
	}
	if treeBytes(t, after) != want {
		t.Fatal("the re-routed session reads a different tree")
	}
	if after.Metrics.PreparedExecs == 0 {
		t.Fatalf("MLE after the promotion executed no prepared statement: %+v", after.Metrics)
	}
}

// TestRerouteDuringHelloKeepsRequestedEncodings: a promotion that
// re-routes the session while its hello is on the wire must not leave
// it on the old encodings. The wrapper promotes munich from inside the
// first hello exchange of ApplyConfig; the next MLE still ships
// compressed frames and WireCaps reports both requested encodings.
func TestRerouteDuringHelloKeepsRequestedEncodings(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 4, Branch: 4, Sigma: 0.9, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	var fired atomic.Bool
	var promoteErr error
	cl.SetTransportWrapper(func(target string, tr pdmtune.Transport) pdmtune.Transport {
		if target != pdmtune.PrimarySite {
			return tr
		}
		return transportFunc(func(rctx context.Context, req []byte) ([]byte, error) {
			if len(req) > 0 && req[0] == wire.TypeHello && fired.CompareAndSwap(false, true) {
				promoteErr = cl.Promote(ctx, "munich")
			}
			return tr.RoundTrip(rctx, req)
		})
	})
	sess, err := cl.OpenAt(ctx, pdmtune.PrimarySite)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	k := sess.TuneConfig()
	k.Columnar, k.Compress = true, true
	if err := sess.ApplyConfig(ctx, k); err != nil {
		t.Fatalf("ApplyConfig: %v", err)
	}
	if !fired.Load() {
		t.Fatal("ApplyConfig sent no hello")
	}
	if promoteErr != nil || cl.PrimaryName() != "munich" {
		t.Fatalf("promotion from inside the hello: primary=%q, %v", cl.PrimaryName(), promoteErr)
	}
	res, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatalf("MLE after the re-route: %v", err)
	}
	if res.Metrics.CompressedFrames == 0 {
		t.Errorf("MLE after the re-route shipped no compressed frame: %+v", res.Metrics)
	}
	if caps := sess.WireCaps(); !caps.ColumnarResults || !caps.Compression {
		t.Errorf("WireCaps after the re-route = %+v, want columnar and compression", caps)
	}
}

// TestRerouteMidReadAnswersOrFailsStructurally: the primary dies under
// a PrimarySite session and munich is promoted from inside the first
// exchange that fails. The MLE in flight either answers the pre-outage
// tree or fails with *ConnClosedError — never another tree — and the
// session's next MLE reads the tree at munich. The promotion probes the
// dead primary through the same wrapper, so it fires on a
// CompareAndSwap: a re-entrant sync.Once would deadlock.
func TestRerouteMidReadAnswersOrFailsStructurally(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 4, Branch: 3, Sigma: 0.7, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	plan := &netsim.FaultPlan{}
	var fired atomic.Bool
	var promoteErr error
	cl.SetTransportWrapper(func(target string, tr pdmtune.Transport) pdmtune.Transport {
		if target != pdmtune.PrimarySite {
			return tr
		}
		fi := netsim.NewFaultInjector(tr, plan)
		return transportFunc(func(rctx context.Context, req []byte) ([]byte, error) {
			resp, err := fi.RoundTrip(rctx, req)
			if err != nil && fired.CompareAndSwap(false, true) {
				promoteErr = cl.Promote(ctx, "munich")
			}
			return resp, err
		})
	})
	sess, err := cl.OpenAt(ctx, pdmtune.PrimarySite, pdmtune.WithLink(pdmtune.LAN()))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	before, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	want := treeBytes(t, before)

	plan.Kill()
	res, err := sess.MultiLevelExpand(ctx, prod.RootID)
	var cce *pdmtune.ConnClosedError
	switch {
	case err == nil:
		if treeBytes(t, res) != want {
			t.Fatal("the MLE in flight across the re-route answered a different tree")
		}
		t.Logf("the MLE in flight answered the tree after %d retries", res.Metrics.Retries)
	case errors.As(err, &cce):
		t.Logf("the MLE in flight failed structurally: %v", err)
	default:
		t.Fatalf("the MLE in flight across the re-route: %v, want the tree or *ConnClosedError", err)
	}
	if !fired.Load() || promoteErr != nil || cl.PrimaryName() != "munich" {
		t.Fatalf("promotion from inside the failed exchange: fired=%v primary=%q, %v",
			fired.Load(), cl.PrimaryName(), promoteErr)
	}
	after, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatalf("MLE after the re-route: %v", err)
	}
	if treeBytes(t, after) != want {
		t.Fatal("the re-routed session reads a different tree")
	}
}

// TestRerouteSiteSessionThroughItsOwnPromotion: a munich session that
// negotiated compressed columnar results checks the root out and back
// in before any promotion, while munich itself is the primary, and
// after tokyo takes over. Its reads stay on munich's local link
// throughout; its writes cross the WAN whenever munich is not the
// primary, over a write client of their own that carries no encodings
// (so no hello and no compressed frame on the WAN) and no retry
// policy. While munich is primary the two paths are one and the WAN
// meter takes nothing.
func TestRerouteSiteSessionThroughItsOwnPromotion(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"}, pdmtune.SiteConfig{Name: "tokyo"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 2, Sigma: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	sess, err := cl.OpenAt(ctx, "munich",
		pdmtune.WithColumnarResults(true), pdmtune.WithCompression(true))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// checkOutIn checks the root out and in and returns what each meter
	// took for the pair.
	checkOutIn := func(stage string) (wan, local pdmtune.Metrics) {
		t.Helper()
		wan0, local0 := sess.WANMetrics(), sess.LocalMetrics()
		if res, err := sess.CheckOut(ctx, prod.RootID); err != nil || !res.Granted {
			t.Fatalf("%s: check-out: %+v, %v", stage, res, err)
		}
		if _, err := sess.CheckIn(ctx, prod.RootID); err != nil {
			t.Fatalf("%s: check-in: %v", stage, err)
		}
		return sess.WANMetrics().Sub(wan0), sess.LocalMetrics().Sub(local0)
	}
	split := func(stage string) {
		t.Helper()
		wan, local := checkOutIn(stage)
		if wan.RoundTrips != 4 || wan.CompressedFrames != 0 || wan.Retries != 0 {
			t.Errorf("%s: WAN took %d round trips, %d compressed frames, %d retries; want 4, 0, 0",
				stage, wan.RoundTrips, wan.CompressedFrames, wan.Retries)
		}
		if local.RoundTrips != 2 {
			t.Errorf("%s: local link took %d round trips, want 2", stage, local.RoundTrips)
		}
	}

	split("before any promotion")
	if err := cl.Promote(ctx, "munich"); err != nil {
		t.Fatalf("Promote munich: %v", err)
	}
	wan, local := checkOutIn("munich primary")
	if wan != (pdmtune.Metrics{}) {
		t.Errorf("munich primary: WAN took %+v, want nothing", wan)
	}
	if local.RoundTrips != 6 {
		t.Errorf("munich primary: local link took %d round trips, want 6", local.RoundTrips)
	}
	if err := cl.Promote(ctx, "tokyo"); err != nil {
		t.Fatalf("Promote tokyo: %v", err)
	}
	split("tokyo primary")
}

// TestRerouteLeavesCallerTransportInPlace: a session opened over the
// caller's own transport stays on it across a promotion. After munich
// is promoted, the session's next MLE still goes through the caller's
// transport to the deposed primary and answers the same tree, and a
// check-out there is refused with *FencedError and changes nothing.
func TestRerouteLeavesCallerTransportInPlace(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 2, Sigma: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	meter := netsim.NewMeter(pdmtune.LAN())
	primary := pdmtune.MeteredTransport(&wire.MeteredChannel{Conn: cl.Primary().Server.NewConn()}, meter)
	var calls atomic.Int64
	counting := transportFunc(func(rctx context.Context, req []byte) ([]byte, error) {
		calls.Add(1)
		return primary.RoundTrip(rctx, req)
	})
	sess, err := cl.OpenAt(ctx, pdmtune.PrimarySite, pdmtune.WithTransport(counting), pdmtune.WithMeter(meter))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	before, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Promote(ctx, "munich"); err != nil {
		t.Fatalf("Promote: %v", err)
	}

	calls.Store(0)
	after, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatalf("MLE after the promotion: %v", err)
	}
	if got := calls.Load(); got != int64(after.Metrics.RoundTrips) || got == 0 {
		t.Errorf("the caller's transport carried %d of the MLE's %d round trips", got, after.Metrics.RoundTrips)
	}
	if treeBytes(t, after) != treeBytes(t, before) {
		t.Error("the MLE over the caller's transport read a different tree")
	}

	var fe *pdmtune.FencedError
	if _, err := sess.CheckOut(ctx, prod.RootID); !errors.As(err, &fe) {
		t.Fatalf("check-out at the deposed primary: %v, want *FencedError", err)
	}
	fresh, err := cl.OpenAt(ctx, pdmtune.PrimarySite)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for name, s := range map[string]*pdmtune.Session{"deposed primary": sess, "munich": fresh} {
		resp, err := s.Exec(ctx, "SELECT obid FROM assy WHERE checkedout = TRUE")
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Rows) != 0 {
			t.Errorf("%s: the refused check-out left %d assemblies checked out", name, len(resp.Rows))
		}
	}
}

// TestRerouteLeavesActionInFlightOnItsServer: a promotion during an
// action does not move it. The wrapper promotes munich from inside the
// third exchange of a LateEval MLE at PrimarySite: every round trip of
// that MLE reaches the old primary, so its tree comes from one server,
// and the session's next MLE runs at munich. The promotion's own
// probes and catch-up pull are not counted.
func TestRerouteLeavesActionInFlightOnItsServer(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 2, Sigma: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	var (
		mu         sync.Mutex
		counts     = map[string]int{}
		armed      bool
		promoting  atomic.Bool
		promoteErr error
	)
	cl.SetTransportWrapper(func(target string, tr pdmtune.Transport) pdmtune.Transport {
		return transportFunc(func(rctx context.Context, req []byte) ([]byte, error) {
			if !promoting.Load() {
				mu.Lock()
				counts[target]++
				fire := armed && target == pdmtune.PrimarySite && counts[target] == 3
				mu.Unlock()
				if fire {
					promoting.Store(true)
					promoteErr = cl.Promote(ctx, "munich")
					promoting.Store(false)
				}
			}
			return tr.RoundTrip(rctx, req)
		})
	})
	// take returns the exchanges counted per target since the last call.
	take := func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		got := counts
		counts = map[string]int{}
		return got
	}
	sess, err := cl.OpenAt(ctx, pdmtune.PrimarySite, pdmtune.WithStrategy(pdmtune.LateEval))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	before, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}

	take()
	mu.Lock()
	armed = true
	mu.Unlock()
	during, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatalf("MLE across the promotion: %v", err)
	}
	if promoteErr != nil || cl.PrimaryName() != "munich" {
		t.Fatalf("promotion from inside the MLE: primary=%q, %v", cl.PrimaryName(), promoteErr)
	}
	mu.Lock()
	armed = false
	mu.Unlock()
	rts := during.Metrics.RoundTrips
	if got := take(); got[pdmtune.PrimarySite] != rts || got["munich"] != 0 {
		t.Errorf("the MLE in flight sent %d of its %d round trips to primary and %d to munich",
			got[pdmtune.PrimarySite], rts, got["munich"])
	}
	if treeBytes(t, during) != treeBytes(t, before) {
		t.Error("the MLE in flight read a different tree")
	}

	after, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatalf("MLE after the promotion: %v", err)
	}
	if got := take(); got["munich"] != after.Metrics.RoundTrips || got[pdmtune.PrimarySite] != 0 {
		t.Errorf("the next MLE sent %d of its %d round trips to munich and %d to primary",
			got["munich"], after.Metrics.RoundTrips, got[pdmtune.PrimarySite])
	}
	if treeBytes(t, after) != treeBytes(t, before) {
		t.Error("the MLE at munich read a different tree")
	}
}

// TestRerouteFencedWriteWaitsForThePromotion: a raw write fenced while
// a promotion is still running waits for it and is re-issued once at
// the new primary. The wrapper holds munich's catch-up pull, so the old
// primary is fenced and the term not yet moved when the write runs;
// the pull is released 50 ms later.
func TestRerouteFencedWriteWaitsForThePromotion(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 2, Branch: 2, Sigma: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	var armed atomic.Bool
	catchUp, release := make(chan struct{}), make(chan struct{})
	cl.SetTransportWrapper(func(target string, tr pdmtune.Transport) pdmtune.Transport {
		return transportFunc(func(rctx context.Context, req []byte) ([]byte, error) {
			if _, inner, err := wire.DecodeFenced(req); err == nil && len(inner) > 0 &&
				inner[0] == wire.TypeSync && armed.CompareAndSwap(true, false) {
				close(catchUp)
				<-release
			}
			return tr.RoundTrip(rctx, req)
		})
	})
	sess, err := cl.OpenAt(ctx, pdmtune.PrimarySite, pdmtune.WithLink(pdmtune.LAN()))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	armed.Store(true)
	promoted := make(chan error, 1)
	go func() { promoted <- cl.Promote(ctx, "munich") }()
	<-catchUp
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	resp, err := sess.Exec(ctx, fmt.Sprintf("UPDATE assy SET checkedout = FALSE WHERE obid = %d", prod.RootID))
	if err := <-promoted; err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if err != nil {
		t.Fatalf("write fenced during the promotion: %v, want it re-issued at munich", err)
	}
	if resp.RowsAffected != 1 {
		t.Fatalf("re-issued write affected %d rows, want 1", resp.RowsAffected)
	}
}

// TestRerouteApplyConfigAfterPrimaryDied: a session that has not acted
// since a promotion renegotiates its encodings at the new primary, not
// over its connection to the dead old one.
func TestRerouteApplyConfigAfterPrimaryDied(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 2, Sigma: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	plan := killPlanWrapper(cl, pdmtune.PrimarySite)
	sess, err := cl.OpenAt(ctx, pdmtune.PrimarySite)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	plan.Kill()
	if err := cl.Promote(ctx, "munich"); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	k := sess.TuneConfig()
	k.Columnar, k.Compress = true, true
	if err := sess.ApplyConfig(ctx, k); err != nil {
		t.Fatalf("ApplyConfig after the promotion: %v", err)
	}
	res, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatalf("MLE after the promotion: %v", err)
	}
	if caps := sess.WireCaps(); !caps.ColumnarResults || !caps.Compression || res.Metrics.Retries != 0 {
		t.Errorf("after ApplyConfig at munich: WireCaps %+v, %d retries", caps, res.Metrics.Retries)
	}
}
