package pdmtune_test

import (
	"context"
	"testing"

	"pdmtune"
)

// TestReplicatedAcceptanceD7B5 is the acceptance scenario of the
// multi-site topology PR: on the paper's δ=7, β=5, σ=0.6 product, a
// recursive MLE opened at a replica site over the LAN link returns a
// tree byte-identical to the primary's; the charged WAN volume of the
// read is 0 after the sync; a check-out at the primary followed by
// SyncSite and a re-read shows the new revision (and a bounded-
// staleness session shows it without the explicit sync). The cost
// model's agreement with the site-local read is a row of
// TestModelFidelity.
func TestReplicatedAcceptanceD7B5(t *testing.T) {
	cl, err := pdmtune.NewCluster(nil,
		pdmtune.SiteConfig{Name: "munich", Link: pdmtune.Intercontinental()})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{
		Depth: 7, Branch: 5, Sigma: 0.6, Seed: 2001,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	user := pdmtune.DefaultUser("engineer")

	// Ground truth: the same MLE at the primary.
	primarySess, err := cl.OpenAt(ctx, pdmtune.PrimarySite,
		pdmtune.WithUser(user), pdmtune.WithStrategy(pdmtune.Recursive))
	if err != nil {
		t.Fatal(err)
	}
	defer primarySess.Close()
	primaryRes, err := primarySess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}

	// Sync the site, then read from it at LAN cost.
	stats, err := cl.SyncSite(ctx, "munich")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows == 0 || stats.Epoch == 0 {
		t.Fatalf("sync shipped nothing: %+v", stats)
	}
	sess, err := cl.OpenAt(ctx, "munich",
		pdmtune.WithUser(user), pdmtune.WithStrategy(pdmtune.Recursive))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}

	// Byte-identical tree, full WAN read volume avoided.
	if fp, fr := treeFingerprint(t, primaryRes), treeFingerprint(t, res); fp != fr {
		t.Fatal("replica tree differs from the primary's")
	}
	if res.Visible != prod.VisibleNodes() {
		t.Errorf("visible = %d, ground truth %d", res.Visible, prod.VisibleNodes())
	}
	if wan := sess.WANMetrics(); wan.RoundTrips != 0 || wan.VolumeBytes() != 0 {
		t.Errorf("replica read charged the WAN: %+v", wan)
	}
	local := sess.LocalMetrics()
	if local.RoundTrips == 0 {
		t.Fatal("replica read charged no local traffic")
	}
	if sess.Metrics() != local {
		t.Errorf("session metrics %+v != local metrics %+v", sess.Metrics(), local)
	}
	// The LAN read is orders of magnitude below the WAN read.
	if local.TotalSec()*100 > primaryRes.Metrics.TotalSec() {
		t.Errorf("replica MLE %.3fs, want <1%% of the primary's WAN %.2fs",
			local.TotalSec(), primaryRes.Metrics.TotalSec())
	}

	// A write at the primary, SyncSite, re-read: the new revision is
	// visible, byte-identical to a fresh primary read.
	writer, err := cl.Primary().Open(pdmtune.WithLink(pdmtune.LAN()), pdmtune.WithUser(user))
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	co, err := writer.CheckOutViaProcedure(ctx, prod.RootID)
	if err != nil || !co.Granted {
		t.Fatalf("check-out at the primary: %+v, %v", co, err)
	}
	if _, err := cl.SyncSite(ctx, "munich"); err != nil {
		t.Fatal(err)
	}
	after, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Tree.Root.CheckedOut {
		t.Fatal("replica re-read does not show the primary's check-out")
	}
	primaryAfter, err := primarySess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	if fp, fr := treeFingerprint(t, primaryAfter), treeFingerprint(t, after); fp != fr {
		t.Fatal("replica tree differs from the primary's after the write + sync")
	}
	if wan := sess.WANMetrics(); wan.RoundTrips != 0 {
		t.Errorf("replica re-read crossed the WAN: %+v", wan)
	}

	// Bounded staleness: a zero-bound session sees the next write with
	// no explicit SyncSite at all.
	fresh, err := cl.OpenAt(ctx, "munich", pdmtune.WithUser(user),
		pdmtune.WithStrategy(pdmtune.Recursive), pdmtune.WithMaxStaleness(0))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := writer.CheckInViaProcedure(ctx, prod.RootID); err != nil {
		t.Fatal(err)
	}
	freshRes, err := fresh.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	if freshRes.Tree.Root.CheckedOut {
		t.Fatal("zero-staleness session served the pre-check-in revision")
	}

	t.Logf("δ=7/β=5 replica MLE: %.3fs local vs %.2fs at the primary over the WAN; sync shipped %d rows / %d keys",
		res.Metrics.TotalSec(), primaryRes.Metrics.TotalSec(), stats.Rows, stats.Keys)
}
