// Worldwide: the paper's opening anecdote, reproduced. The same
// multi-level expand that takes "little more than half a minute" against
// a local server takes "up to half an hour" across the intercontinental
// WAN — and the combined tuning brings it back to interactive times.
//
// This example uses the paper's δ=7, β=5, σ=0.6 scenario (97,655 nodes),
// so generation takes a few seconds.
package main

import (
	"context"
	"fmt"
	"log"

	"pdmtune"
)

func main() {
	// The primary lives in Stuttgart; São Paulo is a replica site on
	// the far end of the paper's 256 kbit/s intercontinental link.
	cluster, err := pdmtune.NewCluster(nil,
		pdmtune.SiteConfig{Name: "saopaulo", Link: pdmtune.Intercontinental()})
	if err != nil {
		log.Fatal(err)
	}
	sys := cluster.Primary()
	fmt.Println("generating the δ=7, β=5 product (97,655 nodes)...")
	prod, err := sys.LoadProduct(pdmtune.ProductConfig{
		Depth: 7, Branch: 5, Sigma: 0.6, Seed: 2001,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("done: %d nodes, %d visible\n\n", prod.AllNodes(), prod.VisibleNodes())

	ctx := context.Background()
	user := pdmtune.DefaultUser("engineer")
	scenarios := []struct {
		where string
		opts  []pdmtune.Option
	}{
		{"Stuttgart office (LAN), unoptimized",
			[]pdmtune.Option{pdmtune.WithLink(pdmtune.LAN()), pdmtune.WithStrategy(pdmtune.LateEval)}},
		{"São Paulo via WAN, unoptimized",
			[]pdmtune.Option{pdmtune.WithLink(pdmtune.Intercontinental()), pdmtune.WithStrategy(pdmtune.LateEval)}},
		{"São Paulo via WAN, early rule evaluation",
			[]pdmtune.Option{pdmtune.WithLink(pdmtune.Intercontinental()), pdmtune.WithStrategy(pdmtune.EarlyEval)}},
		{"São Paulo via WAN, early eval + batching + prepared",
			[]pdmtune.Option{pdmtune.WithLink(pdmtune.Intercontinental()), pdmtune.WithStrategy(pdmtune.EarlyEval),
				pdmtune.WithBatching(true), pdmtune.WithPreparedStatements(true)}},
		{"São Paulo via WAN, early eval + recursive SQL",
			[]pdmtune.Option{pdmtune.WithLink(pdmtune.Intercontinental()), pdmtune.WithStrategy(pdmtune.Recursive)}},
		{"São Paulo via WAN, recursive + columnar + deflate",
			[]pdmtune.Option{pdmtune.WithLink(pdmtune.Intercontinental()), pdmtune.WithStrategy(pdmtune.Recursive),
				pdmtune.WithColumnarResults(true), pdmtune.WithCompression(true)}},
	}
	fmt.Println("multi-level expand of the complete product structure:")
	var base float64
	for i, sc := range scenarios {
		sess, err := sys.Open(append(sc.opts, pdmtune.WithUser(user))...)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := sess.MultiLevelExpand(ctx, prod.RootID); err != nil {
			log.Fatal(err)
		}
		t := sess.Metrics().TotalSec()
		line := fmt.Sprintf("  %-52s %8.1f s (%5.1f min)", sc.where, t, t/60)
		if i == 1 {
			base = t
		}
		if i > 1 && base > 0 {
			line += fmt.Sprintf("   saving %.1f%%", (1-t/base)*100)
		}
		fmt.Println(line)
		if err := sess.Close(); err != nil {
			log.Fatal(err)
		}
	}

	// The advisor reaches the tuned configuration automatically: it
	// watches the untuned session's own metrics window, distills its
	// workload, and ranks the whole knob lattice with the cost model —
	// no hand-picking.
	adv := pdmtune.Advisor{Product: prod.Config}
	untuned, err := sys.Open(
		pdmtune.WithLink(pdmtune.Intercontinental()),
		pdmtune.WithStrategy(pdmtune.LateEval),
		pdmtune.WithUser(user),
	)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := untuned.MultiLevelExpand(ctx, prod.RootID); err != nil {
		log.Fatal(err)
	}
	if cs := adv.Plan(untuned, untuned.Metrics()); cs != nil {
		fmt.Printf("\n  advisor's pick after watching the untuned session: %s\n", cs.Target)
		fmt.Printf("    (model: %.1f s -> %.1f s per MLE; ChangeSet %s applies it live, Rollback reverts)\n",
			cs.CurrentSec, cs.PredictedSec, cs.ID)
	}
	if err := untuned.Close(); err != nil {
		log.Fatal(err)
	}

	// The structure cache removes the repeat cost entirely: the second
	// MLE of the same (unchanged) product revalidates the cached tree
	// in one small round trip instead of re-shipping ~3,300 nodes.
	cached, err := sys.Open(
		pdmtune.WithLink(pdmtune.Intercontinental()),
		pdmtune.WithStrategy(pdmtune.EarlyEval),
		pdmtune.WithBatching(true),
		pdmtune.WithCache(1<<20),
		pdmtune.WithUser(user),
	)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cached.MultiLevelExpand(ctx, prod.RootID); err != nil { // cold: fills the cache
		log.Fatal(err)
	}
	cached.ResetMetrics()
	warm, err := cached.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		log.Fatal(err)
	}
	t := warm.Metrics.TotalSec()
	line := fmt.Sprintf("  %-52s %8.1f s (%5.1f min)", "São Paulo via WAN, repeated MLE on a warm cache", t, t/60)
	if base > 0 {
		line += fmt.Sprintf("   saving %.1f%%", (1-t/base)*100)
	}
	fmt.Println(line)
	fmt.Printf("    (%d round trip: the validate exchange; %d cached pages served locally)\n",
		warm.Metrics.RoundTrips, warm.Metrics.CacheHits)
	if err := cached.Close(); err != nil {
		log.Fatal(err)
	}

	// The topology answer: put the replica IN São Paulo. One sync ships
	// the rows across the ocean; after that both the cold and the
	// repeated MLE run at LAN cost — no WAN bytes at all — while every
	// check-out still goes to the Stuttgart primary.
	stats, err := cluster.SyncSite(ctx, "saopaulo")
	if err != nil {
		log.Fatal(err)
	}
	site, _ := cluster.Site("saopaulo")
	fmt.Printf("\n  replicating to the São Paulo site: %d rows, %.0f KiB, %.1f s across the WAN (paid once)\n",
		stats.Rows, site.Metrics().VolumeBytes()/1024, site.Metrics().TotalSec())
	replica, err := cluster.OpenAt(ctx, "saopaulo",
		pdmtune.WithStrategy(pdmtune.Recursive), pdmtune.WithUser(user))
	if err != nil {
		log.Fatal(err)
	}
	defer replica.Close()
	for _, label := range []string{
		"São Paulo replica site, cold MLE (LAN)",
		"São Paulo replica site, repeated MLE (LAN)",
	} {
		replica.ResetMetrics()
		if _, err := replica.MultiLevelExpand(ctx, prod.RootID); err != nil {
			log.Fatal(err)
		}
		t := replica.Metrics().TotalSec()
		line := fmt.Sprintf("  %-52s %8.1f s (%5.1f min)", label, t, t/60)
		if base > 0 {
			line += fmt.Sprintf("   saving %.1f%%", (1-t/base)*100)
		}
		fmt.Println(line)
	}
	fmt.Printf("    (WAN bytes charged for the replica reads: %.0f)\n",
		replica.WANMetrics().VolumeBytes())

	fmt.Println("\n(cf. paper Section 2: ~half a minute in the LAN vs ~half an hour in the")
	fmt.Println("WAN, and Table 4: >95% of the delay eliminated by the combined approach)")
}
