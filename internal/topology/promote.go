package topology

import (
	"context"
	"fmt"

	"pdmtune/internal/failover"
	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
)

// PromoteConfig tunes the promotion prechecks.
type PromoteConfig struct {
	// MaxEpochLag is the largest primary-epoch lag (last known primary
	// epoch minus the candidate's synced epoch) a candidate may have
	// when the old primary cannot be reached for a final catch-up pull.
	// Default 0: an unreachable primary's unreplicated writes are never
	// silently discarded unless the caller raised the bound.
	MaxEpochLag uint64
}

// PromoteError reports a promotion refused by a precheck.
type PromoteError struct {
	// Site is the candidate.
	Site string
	// Stage names the failed precheck: "unknown-site", "already-primary",
	// "quorum", "epoch-lag", "inflight" or "subscription-coverage".
	Stage string
	// Reason is human-readable detail.
	Reason string
}

func (e *PromoteError) Error() string {
	return fmt.Sprintf("pdmtune: promote %s: %s: %s", e.Site, e.Stage, e.Reason)
}

// probeLocked asks node n for its status over a (possibly
// fault-wrapped) control transport.
func (c *Cluster) probeLocked(ctx context.Context, n *Site) error {
	_, err := wire.NewClient(c.dialLocked(n, c.healthMeter)).Status(ctx)
	return err
}

// Promote performs a health-checked primary failover to the named
// site:
//
//  1. Prechecks — a quorum of replica sites answers a status probe
//     (the candidate must be among them) and the candidate has no
//     check-out/check-in in flight.
//  2. The old primary is fenced: it keeps its old term with the
//     primary flag cleared, so every write it still receives — fenced
//     or not — is refused with a *wire.FencedError instead of
//     executing.
//  3. A final catch-up pull drains the old primary's unreplicated tail
//     into the candidate. If the old primary is unreachable (that is
//     why failovers happen), the pull is skipped and the candidate's
//     epoch lag must be within PromoteConfig.MaxEpochLag — otherwise
//     the promotion aborts and the old primary is unfenced.
//  4. The fencing term is bumped; the candidate's fence becomes (new
//     term, primary), every other node's (new term, replica).
//  5. Every other site's replication pull is re-pointed at the new
//     primary and the subscription registry follows it. Sessions are
//     not touched: each sees the new term at its next action and
//     rebuilds its own connections (see WithPrimary).
//
// The whole promotion is one critical section of the control plane:
// concurrent syncs and session writes observe either the old topology
// (and get fenced) or the complete new one.
func (c *Cluster) Promote(ctx context.Context, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	candidate := c.siteLocked(name)
	if candidate == nil {
		return &PromoteError{Site: name, Stage: "unknown-site",
			Reason: fmt.Sprintf("no such site (have %v)", c.siteNamesLocked())}
	}
	if candidate == c.primary {
		return &PromoteError{Site: name, Stage: "already-primary", Reason: "site is already the primary"}
	}
	if n := c.inflight[candidate]; n > 0 {
		return &PromoteError{Site: name, Stage: "inflight",
			Reason: fmt.Sprintf("%d check-out/check-in action(s) in flight at the candidate", n)}
	}
	if candidate.Partial() {
		// A subscription-bounded replica holds only its closure — rows
		// outside it would vanish from the cluster's history if it became
		// the source of truth. Unsubscribe and sync to full before
		// promoting.
		return &PromoteError{Site: name, Stage: "subscription-coverage",
			Reason: "candidate is a partial replica (subscription-bounded); unsubscribe and sync it to full coverage first"}
	}

	// Quorum: a majority of the replica sites (candidate included)
	// answering a status probe over their control transports.
	replicas, reachable := 0, 0
	candidateUp := false
	for _, n := range c.sites {
		if n == c.primary {
			continue
		}
		replicas++
		if c.probeLocked(ctx, n) == nil {
			reachable++
			candidateUp = candidateUp || n == candidate
		}
	}
	quorum := replicas/2 + 1
	if !candidateUp {
		return &PromoteError{Site: name, Stage: "quorum", Reason: "candidate did not answer its status probe"}
	}
	if reachable < quorum {
		return &PromoteError{Site: name, Stage: "quorum",
			Reason: fmt.Sprintf("only %d of %d replica sites reachable, need %d", reachable, replicas, quorum)}
	}

	// Fence the old primary first: from this instant no write commits
	// there, so everything the catch-up pull extracts is the complete
	// acknowledged history.
	old := c.primary
	oldTerm := c.term.Load()
	oldFence := old.server.CurrentFence()
	oldFence.Set(oldTerm, false)

	// Final catch-up: drain the old primary's tail. Failure (killed
	// primary) falls back to the epoch-lag bound.
	if _, err := candidate.Sync(ctx); err != nil {
		lastKnown := c.lastKnownPrimaryEpochLocked()
		lag := uint64(0)
		if e := candidate.Epoch(); lastKnown > e {
			lag = lastKnown - e
		}
		if lag > c.cfg.MaxEpochLag {
			oldFence.Set(oldTerm, true) // roll the fence back; promotion off
			return &PromoteError{Site: name, Stage: "epoch-lag",
				Reason: fmt.Sprintf("old primary unreachable and candidate lags %d epochs (bound %d): %v",
					lag, c.cfg.MaxEpochLag, err)}
		}
	}

	// Point of no return: bump the term, flip every other node's fence,
	// hand the primary role over.
	newTerm := oldTerm + 1
	c.term.Store(newTerm)
	base := candidate.Epoch()
	c.baseEpoch = base
	c.lastPrimaryEpoch = max(c.lastPrimaryEpoch, base)
	for _, n := range c.nodesLocked() {
		if n != old { // the deposed primary keeps its old term, deposed
			n.server.CurrentFence().Set(newTerm, n == candidate)
		}
	}
	candidate.promote(base)
	c.primary = candidate

	// Re-point every other site's pull at the new primary. A deposed
	// primary that is itself a site (a second failover) becomes an
	// ordinary replica again: any tail it holds beyond the promotion
	// base is divergent history the catch-up could not reach — discard
	// it and resync from scratch, exactly like Rejoin does for the
	// original primary.
	for _, n := range c.sites {
		if n == candidate {
			continue
		}
		if n == old {
			from := base
			if discarded, err := n.db.DiscardSince(base); err == nil && discarded {
				from = 0
			}
			n.rewind(from)
		}
		n.repoint(c.dialLocked(candidate, n.meter))
	}

	// Hand the subscription registry over to the new primary: the old
	// server stops filtering pulls, the registry re-targets the new
	// primary's database (rebuilding its adjacency from scratch — the
	// new version log numbers epochs differently), and the new server
	// starts filtering. Sites keep their subscriptions across the
	// failover.
	if c.sub != nil {
		old.server.SetSyncFilter(nil)
		c.sub.Retarget(candidate.db)
		c.installSyncFilterLocked()
	}

	if c.checker != nil {
		c.checker.Reset(c.primaryProberLocked())
	}
	return nil
}

// lastKnownPrimaryEpochLocked is the control plane's best knowledge of
// how far the primary's history reached: the highest epoch any site
// synced to, the last promotion base, and the health checker's last
// successful probe.
func (c *Cluster) lastKnownPrimaryEpochLocked() uint64 {
	last := c.lastPrimaryEpoch
	for _, n := range c.sites {
		last = max(last, n.Epoch())
	}
	if c.checker != nil {
		last = max(last, c.checker.LastStatus().Epoch)
	}
	return last
}

// PromoteBest promotes the most caught-up reachable full replica site
// and returns its name. It is what the health checker triggers when
// the primary goes down.
func (c *Cluster) PromoteBest(ctx context.Context) (string, error) {
	c.mu.Lock()
	var best *Site
	var bestEpoch uint64
	for _, n := range c.sites {
		// A subscription-bounded replica cannot become the source of
		// truth (Promote would refuse it); prefer full-coverage sites.
		if n == c.primary || n.Partial() || c.probeLocked(ctx, n) != nil {
			continue
		}
		if e := n.Epoch(); best == nil || e > bestEpoch {
			best, bestEpoch = n, e
		}
	}
	c.mu.Unlock()
	if best == nil {
		return "", &PromoteError{Site: "", Stage: "quorum", Reason: "no reachable replica site to promote"}
	}
	return best.name, c.Promote(ctx, best.name)
}

// primaryProberLocked builds a status prober for the current primary
// over a (possibly fault-wrapped) control transport.
func (c *Cluster) primaryProberLocked() failover.Prober {
	return wire.NewClient(c.dialLocked(c.primary, c.healthMeter))
}

// WatchPrimary attaches a health checker to the current primary (and,
// after each promotion, to the new one). Once Threshold consecutive
// probes fail it triggers PromoteBest.
func (c *Cluster) WatchPrimary(cfg failover.Config) *failover.Checker {
	c.mu.Lock()
	defer c.mu.Unlock()
	ck := failover.New(c.primaryProberLocked(), cfg, c.healthMeter, func() {
		_, _ = c.PromoteBest(context.Background())
	})
	c.checker = ck
	return ck
}

// Rejoin brings the deposed original primary back into the cluster as
// the replica site DemotedPrimarySite: its divergent tail — writes it
// accepted after the promotion base that never replicated — is
// discarded, its fence is aligned with the current term (as a
// replica), and it syncs forward from the promotion base off the
// current primary. Sessions still attached to its server keep working
// as replica-read sessions. Returns the stats of the initial sync.
func (c *Cluster) Rejoin(ctx context.Context) (SyncStats, error) {
	c.mu.Lock()
	o := c.origin
	if c.rejoined {
		c.mu.Unlock()
		return SyncStats{}, fmt.Errorf("pdmtune: rejoin: %q already rejoined", DemotedPrimarySite)
	}
	if !c.Fenced() || c.primary == o {
		c.mu.Unlock()
		return SyncStats{}, fmt.Errorf("pdmtune: rejoin: the original primary was never deposed")
	}
	base := c.baseEpoch
	discarded, err := o.db.DiscardSince(base)
	if err != nil {
		c.mu.Unlock()
		return SyncStats{}, fmt.Errorf("pdmtune: rejoin: discard divergent tail: %w", err)
	}
	if discarded {
		// Divergent keys were erased; the new primary never modified
		// them, so only a full pull (since 0) re-ships their
		// authoritative rows. A clean rejoin stays incremental.
		base = 0
	}
	// The origin pulls over the current primary's WAN link. link and
	// meter are set here, before the origin is registered as a site.
	o.link = c.primary.link
	o.meter = netsim.NewMeter(o.link)
	o.fence(c.TermSource())
	o.rewind(base)
	o.repoint(c.dialLocked(c.primary, o.meter))
	// Align the origin's fence with the cluster: a replica at the
	// current term (still refusing writes, now as a plain replica).
	o.server.CurrentFence().Set(c.term.Load(), false)
	c.rejoined = true
	c.sites = append(c.sites, o)
	c.mu.Unlock()
	return o.Sync(ctx)
}
