package pdmtune_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pdmtune"
)

// renderTree flattens a reassembled structure into a canonical string,
// one node per line with every user-visible attribute — the
// byte-identity witness of the partial-replication acceptance test.
func renderTree(t *pdmtune.Tree) string {
	var b strings.Builder
	var walk func(n *pdmtune.Node)
	walk = func(n *pdmtune.Node) {
		fmt.Fprintf(&b, "%s|%d|%s|%s|%s|%s|%s|%g|%t|%d|%d|%d|%s|%s|%d\n",
			n.Type, n.ObID, n.Name, n.Dec, n.MakeOrBuy, n.State, n.Material,
			n.Weight, n.CheckedOut, n.Parent, n.EffFrom, n.EffTo, n.StrcOpt,
			n.PathOpt, len(n.Children))
		for _, c := range n.Children {
			walk(c)
		}
	}
	if t != nil && t.Root != nil {
		walk(t.Root)
	}
	return b.String()
}

// TestPartialReplicationD7B5 is the acceptance test of the subscription
// subsystem on the paper's worldwide scenario (δ=7, β=5, σ=0.6): a
// subscription to two of the root's five subtrees on a 3-site cluster
// must cut each site's sync volume by at least half; reads inside the
// subscription must be byte-identical to a full replica's at zero WAN
// read cost; reads outside it must still be correct, served by
// fall-through at a charged WAN cost.
func TestPartialReplicationD7B5(t *testing.T) {
	ctx := context.Background()
	cfg := pdmtune.ProductConfig{Depth: 7, Branch: 5, Sigma: 0.6, Seed: 7}

	// Three partial replicas under test plus one unsubscribed site — the
	// full-replication reference that fixes both the sync-volume baseline
	// and the ground-truth trees.
	partialSites := []string{"munich", "tokyo", "detroit"}
	cl, err := pdmtune.NewCluster(nil,
		pdmtune.SiteConfig{Name: "munich"},
		pdmtune.SiteConfig{Name: "tokyo"},
		pdmtune.SiteConfig{Name: "detroit"},
		pdmtune.SiteConfig{Name: "reference"},
	)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := cl.LoadProduct(cfg)
	if err != nil {
		t.Fatal(err)
	}
	children := prod.Nodes[prod.RootID].Children
	if len(children) != 5 {
		t.Fatalf("expected 5 root subtrees, got %d", len(children))
	}
	// Subscribe to 2 of the 5 subtrees: ~40% of the structure ships.
	inSub, outSub := children[0], children[4]
	for _, site := range partialSites {
		if err := cl.Subscribe(site, children[0], children[1]); err != nil {
			t.Fatal(err)
		}
		if got := cl.SubscriptionRoots(site); len(got) != 2 {
			t.Fatalf("site %s: subscription roots = %v", site, got)
		}
	}

	// The reference site syncs the full product; its volume is the
	// baseline the partial sites must halve, and its trees the ground
	// truth theirs must match byte for byte.
	if _, err := cl.SyncSite(ctx, "reference"); err != nil {
		t.Fatal(err)
	}
	refSite, _ := cl.Site("reference")
	fullSyncBytes := refSite.Metrics().VolumeBytes()
	fullSess, err := cl.OpenAt(ctx, "reference", pdmtune.WithStrategy(pdmtune.Recursive))
	if err != nil {
		t.Fatal(err)
	}
	defer fullSess.Close()
	fullIn, err := fullSess.MultiLevelExpand(ctx, inSub)
	if err != nil {
		t.Fatal(err)
	}
	fullOut, err := fullSess.MultiLevelExpand(ctx, outSub)
	if err != nil {
		t.Fatal(err)
	}
	wantIn, wantOut := renderTree(fullIn.Tree), renderTree(fullOut.Tree)
	if wantIn == "" || wantOut == "" || wantIn == wantOut {
		t.Fatal("degenerate reference trees")
	}
	if wan := fullSess.WANMetrics(); wan.VolumeBytes() != 0 {
		t.Fatalf("reference replica read crossed the WAN (%.0f bytes)", wan.VolumeBytes())
	}

	for _, siteName := range partialSites {
		if _, err := cl.SyncSite(ctx, siteName); err != nil {
			t.Fatalf("sync %s: %v", siteName, err)
		}
		site, _ := cl.Site(siteName)
		m := site.Metrics()

		// ≥50% sync-volume reduction against the full replica's pull.
		if got := m.VolumeBytes(); got > fullSyncBytes/2 {
			t.Errorf("site %s: partial sync moved %.0f bytes, full sync %.0f — reduction below 50%%",
				siteName, got, fullSyncBytes)
		}
		if m.SkippedRows == 0 || m.SubscribedRows == 0 {
			t.Errorf("site %s: subscription accounting empty (shipped %d, skipped %d)",
				siteName, m.SubscribedRows, m.SkippedRows)
		}
		if !site.Partial() {
			t.Errorf("site %s: not marked partial after a filtered sync", siteName)
		}

		sess, err := cl.OpenAt(ctx, siteName, pdmtune.WithStrategy(pdmtune.Recursive))
		if err != nil {
			t.Fatal(err)
		}

		// In-subscription read: byte-identical, zero WAN read cost.
		resIn, err := sess.MultiLevelExpand(ctx, inSub)
		if err != nil {
			t.Fatalf("site %s: in-subscription MLE: %v", siteName, err)
		}
		if got := renderTree(resIn.Tree); got != wantIn {
			t.Errorf("site %s: in-subscription tree differs from the full replica's", siteName)
		}
		if wan := sess.WANMetrics(); wan.VolumeBytes() != 0 || wan.FallThroughRoundTrips != 0 {
			t.Errorf("site %s: in-subscription read crossed the WAN (%.0f bytes, %d fall-through)",
				siteName, wan.VolumeBytes(), wan.FallThroughRoundTrips)
		}

		// Out-of-subscription read: correct via fall-through, WAN charged.
		resOut, err := sess.MultiLevelExpand(ctx, outSub)
		if err != nil {
			t.Fatalf("site %s: out-of-subscription MLE: %v", siteName, err)
		}
		if got := renderTree(resOut.Tree); got != wantOut {
			t.Errorf("site %s: fall-through tree differs from the full replica's", siteName)
		}
		wan := sess.WANMetrics()
		if wan.FallThroughRoundTrips == 0 || wan.VolumeBytes() == 0 {
			t.Errorf("site %s: out-of-subscription read was not charged as fall-through (%.0f bytes, %d round trips)",
				siteName, wan.VolumeBytes(), wan.FallThroughRoundTrips)
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFallThroughConcurrent drives in- and out-of-subscription reads,
// and Queries of the whole product, from many goroutines at once (one
// session each) — the fall-through layer and the holds bookkeeping must
// be race-free (run with -race), and every Query must see what the
// primary sees.
func TestFallThroughConcurrent(t *testing.T) {
	ctx := context.Background()
	cl, err := pdmtune.NewCluster(nil, pdmtune.SiteConfig{Name: "munich"})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 4, Branch: 3, Sigma: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	children := prod.Nodes[prod.RootID].Children
	if err := cl.Subscribe("munich", children[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SyncSite(ctx, "munich"); err != nil {
		t.Fatal(err)
	}
	primary, err := cl.Primary().Open()
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	whole, err := primary.Query(ctx, prod.Config.ProdID)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		target := children[i%len(children)] // mixes held and fall-through roots
		wg.Add(1)
		go func(target int64) {
			defer wg.Done()
			sess, err := cl.OpenAt(ctx, "munich")
			if err != nil {
				errs <- err
				return
			}
			defer sess.Close()
			for j := 0; j < 3; j++ {
				if _, err := sess.MultiLevelExpand(ctx, target); err != nil {
					errs <- fmt.Errorf("MLE %d: %w", target, err)
					return
				}
				if _, err := sess.WhereUsed(ctx, target); err != nil {
					errs <- fmt.Errorf("where-used %d: %w", target, err)
					return
				}
				q, err := sess.Query(ctx, prod.Config.ProdID)
				if err != nil {
					errs <- fmt.Errorf("query: %w", err)
					return
				}
				if q.Visible != whole.Visible {
					errs <- fmt.Errorf("query: %d objects visible, the primary sees %d", q.Visible, whole.Visible)
					return
				}
			}
		}(target)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPromoteRefusesPartialReplica pins the failover interaction: a
// subscription-bounded replica cannot become primary (structured
// refusal), PromoteBest prefers full-coverage candidates, and after a
// promotion the surviving subscriptions keep filtering pulls from the
// new primary.
func TestPromoteRefusesPartialReplica(t *testing.T) {
	ctx := context.Background()
	cl, err := pdmtune.NewCluster(nil,
		pdmtune.SiteConfig{Name: "munich"},
		pdmtune.SiteConfig{Name: "tokyo"},
	)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 3, Sigma: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	children := prod.Nodes[prod.RootID].Children
	if err := cl.Subscribe("munich", children[0]); err != nil {
		t.Fatal(err)
	}
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}

	err = cl.Promote(ctx, "munich")
	var pe *pdmtune.PromoteError
	if !errors.As(err, &pe) || pe.Stage != "subscription-coverage" {
		t.Fatalf("promoting a partial replica: got %v, want *PromoteError at stage subscription-coverage", err)
	}

	// PromoteBest must pick the full-coverage tokyo even though both
	// sites are equally current.
	best, err := cl.PromoteBest(ctx)
	if err != nil {
		t.Fatalf("PromoteBest: %v", err)
	}
	if best != "tokyo" {
		t.Fatalf("PromoteBest picked %q, want the full-coverage \"tokyo\"", best)
	}

	// The subscription registry survives the promotion: munich keeps its
	// roots, and a pull from the new primary is still filtered.
	if got := cl.SubscriptionRoots("munich"); len(got) != 1 || got[0] != children[0] {
		t.Fatalf("subscription lost across promotion: roots = %v", got)
	}
	if _, err := cl.SyncSite(ctx, "munich"); err != nil {
		t.Fatalf("sync from the new primary: %v", err)
	}
	site, _ := cl.Site("munich")
	if !site.Partial() {
		t.Fatal("munich lost its partial marking after syncing from the new primary")
	}

	// Unsubscribing and syncing to full coverage makes munich promotable.
	if err := cl.Unsubscribe("munich"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SyncSite(ctx, "munich"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Promote(ctx, "munich"); err != nil {
		t.Fatalf("promoting after unsubscribe+sync: %v", err)
	}
}

// TestObserveMeasuresSubscriptionCoverage: the advisor reads a site's
// subscription coverage from its meter instead of proposing one — a
// session at a half-subscribed site observes the share of pulled rows
// the subscription kept, strictly between 0 and 1, and a session at a
// full replica observes 0, also once the half site has unsubscribed and
// synced to full.
func TestObserveMeasuresSubscriptionCoverage(t *testing.T) {
	ctx := context.Background()
	cl, err := pdmtune.NewCluster(nil,
		pdmtune.SiteConfig{Name: "half"},
		pdmtune.SiteConfig{Name: "full"},
	)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 4, Sigma: 0.6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	children := prod.Nodes[prod.RootID].Children
	if err := cl.Subscribe("half", children[0], children[1]); err != nil {
		t.Fatal(err)
	}
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}

	observe := func(site string) float64 {
		t.Helper()
		sess, err := cl.OpenAt(ctx, site, pdmtune.WithStrategy(pdmtune.Recursive))
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		if _, err := sess.MultiLevelExpand(ctx, prod.RootID); err != nil {
			t.Fatal(err)
		}
		return sess.Observe().Coverage
	}

	half, _ := cl.Site("half")
	m := half.Metrics()
	want := float64(m.SubscribedRows) / float64(m.SubscribedRows+m.SkippedRows)
	if got := observe("half"); got != want || got <= 0 || got >= 1 {
		t.Errorf("half-subscribed site: observed coverage %v, want the site meter's %v in (0, 1) (shipped %d, skipped %d)",
			got, want, m.SubscribedRows, m.SkippedRows)
	}
	if got := observe("full"); got != 0 {
		t.Errorf("full replica: observed coverage %v, want 0", got)
	}

	if err := cl.Unsubscribe("half"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SyncSite(ctx, "half"); err != nil {
		t.Fatal(err)
	}
	if got := observe("half"); got != 0 {
		t.Errorf("unsubscribed site synced to full: observed coverage %v, want 0", got)
	}
}
