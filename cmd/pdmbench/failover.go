package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"pdmtune"
	"pdmtune/internal/netsim"
)

// runFailover builds a two-replica cluster, drives check-out/check-in
// traffic from a replica session, kills the primary's transport, and
// measures the health-checked failover: how long until a write commits
// again, how many writes were structurally refused while the cluster
// was primary-less, and — after the old primary rejoins — that no
// acknowledged write was lost anywhere (a lost write fails the run).
func runFailover(*env) ([]record, error) {
	sites := []pdmtune.SiteConfig{{Name: "munich"}, {Name: "tokyo"}}
	cl, err := pdmtune.NewCluster(nil, sites...)
	if err != nil {
		return nil, err
	}
	cfg := pdmtune.ProductConfig{Depth: 4, Branch: 3, Sigma: 0.7, Seed: 42}
	prod, err := cl.LoadProduct(cfg)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	if err := cl.SyncAll(ctx); err != nil {
		return nil, err
	}
	plan := &netsim.FaultPlan{}
	cl.SetTransportWrapper(func(target string, tr pdmtune.Transport) pdmtune.Transport {
		if target == pdmtune.PrimarySite {
			return netsim.NewFaultInjector(tr, plan)
		}
		return tr
	})
	sess, err := cl.OpenAt(ctx, "munich")
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	const threshold = 3
	ck := cl.WatchPrimary(pdmtune.HealthConfig{Threshold: threshold})

	acked := 0
	// cycles runs n check-out/check-in pairs, counting each granted op as
	// one acknowledged write. A pair left half-done by an outage is
	// completed by the next one: the re-checkout is denied (the user
	// still holds the subtree) and the check-in releases it.
	cycles := func(n int) error {
		for i := 0; i < n; i++ {
			for _, op := range []func(context.Context, int64) (*pdmtune.CheckOutResult, error){sess.CheckOut, sess.CheckIn} {
				res, err := op(ctx, prod.RootID)
				if err != nil {
					return err
				}
				if res.Granted {
					acked++
				}
			}
		}
		return nil
	}
	if err := cycles(5); err != nil {
		return nil, err
	}

	// Kill the primary's transport and keep writing. Every refusal is a
	// structured error (never a silent drop); each one drives a health
	// probe, so after Threshold failed probes the checker auto-promotes
	// the best replica and the next write lands on the new primary.
	plan.Kill()
	killedAt := time.Now()
	refused := 0
	for {
		err := cycles(1)
		if err == nil {
			break
		}
		refused++
		ck.CheckNow(ctx)
		if refused > 1000 {
			return nil, fmt.Errorf("no recovery after %d refused writes: %w", refused, err)
		}
	}
	recoverSec := time.Since(killedAt).Seconds()
	if err := cycles(5); err != nil {
		return nil, err
	}

	// The dead primary comes back and rejoins as a replica; after one
	// full sync round every database must agree, and every acknowledged
	// check-in must have survived (no subtree left checked out).
	plan.Revive()
	if _, err := cl.Rejoin(ctx); err != nil {
		return nil, err
	}
	if err := cl.SyncAll(ctx); err != nil {
		return nil, err
	}
	primaryName := cl.PrimaryName()
	want, lost, err := siteState(ctx, cl, primaryName)
	if err != nil {
		return nil, err
	}
	converged := true
	for _, site := range cl.SiteNames() {
		got, _, err := siteState(ctx, cl, site)
		if err != nil {
			return nil, err
		}
		converged = converged && got == want
	}
	if lost != 0 || !converged {
		return nil, fmt.Errorf("failover lost %d acknowledged writes (converged=%v)", lost, converged)
	}
	return []record{{
		Mode: "failover", Scenario: "kill-primary",
		Config:  fmt.Sprintf("%s, %d replica sites, promotion after %d failed probes", treeName(cfg), len(sites), threshold),
		Metrics: cl.HealthMetrics(),
		Extra: kv{
			"new_primary": primaryName, "fencing_term": float64(cl.Term()),
			"writes_acked": float64(acked), "writes_refused_primaryless": float64(refused),
			"lost_acked_writes": float64(lost), "dumps_converged": converged,
			"time_to_recover_sec": recoverSec,
		},
	}}, nil
}

// siteState is tableState of one site's structure tables.
func siteState(ctx context.Context, cl *pdmtune.Cluster, site string) (dump string, checkedOut int, err error) {
	s, err := cl.OpenAt(ctx, site)
	if err != nil {
		return "", 0, err
	}
	defer s.Close()
	return tableState(ctx, s, "assy", "comp", "link")
}

func textFailover(w io.Writer, recs []record) {
	r := recs[0]
	fmt.Fprintf(w, "Failover — primary killed under check-out/check-in traffic (%s)\n", r.Config)
	fmt.Fprintf(w, "  new primary %q at fencing term %.0f after %d health probes (%d failed)\n",
		r.str("new_primary"), r.num("fencing_term"), r.Metrics.HealthProbes, r.Metrics.ProbeFailures)
	fmt.Fprintf(w, "  writes acknowledged: %.0f   refused while primary-less: %.0f   lost: %.0f\n",
		r.num("writes_acked"), r.num("writes_refused_primaryless"), r.num("lost_acked_writes"))
	fmt.Fprintf(w, "  time to recover (kill -> first committed write): %.3fs\n", r.num("time_to_recover_sec"))
	fmt.Fprintf(w, "  databases converged after rejoin: %v\n\n", r.Extra["dumps_converged"])
}
