package pdmtune

import (
	"pdmtune/internal/failover"
	"pdmtune/internal/netsim"
	"pdmtune/internal/topology"
	"pdmtune/internal/wire"
)

// DemotedPrimarySite is the site name under which a deposed primary
// rejoins the cluster as a replica (Cluster.Rejoin). It is reserved:
// NewCluster rejects site configs using it.
const DemotedPrimarySite = topology.DemotedPrimarySite

// FencedError reports a write refused by the cluster's epoch-term
// fencing: either the serving node is no longer the primary (Deposed)
// or the frame carried a stale term. Match with errors.As. A fenced
// write provably never executed, so re-issuing it against the current
// primary is safe — open Sessions do that transparently.
type FencedError = wire.FencedError

// ConnClosedError reports a request lost to connection failure (the
// transport died before an answer arrived). Match with errors.As.
// Idempotent reads are retried behind it automatically; writes surface
// it, because a lost ack cannot prove the write didn't land.
type ConnClosedError = wire.ConnClosedError

// HealthConfig tunes the primary health checker (probe interval,
// consecutive-failure threshold); each probe is bounded by 250ms.
type HealthConfig = failover.Config

// HealthChecker probes the cluster's primary; see Cluster.WatchPrimary.
type HealthChecker = failover.Checker

// PromoteConfig tunes the promotion prechecks: MaxEpochLag bounds the
// epochs a promotion may discard when the old primary cannot be
// reached for a final catch-up pull (default 0). A majority of the
// replica sites must answer a status probe.
type PromoteConfig = topology.PromoteConfig

// PromoteError reports a promotion refused by a precheck; Stage names
// it ("unknown-site", "already-primary", "quorum", "epoch-lag",
// "inflight" or "subscription-coverage").
type PromoteError = topology.PromoteError

// registerSession enrolls an open session for re-routing at promotion
// time. dialed is the primary the session's transports were built
// against (nil for caller-supplied transports): if a promotion slipped
// in between the session's dial and its registration, the session is
// re-routed right here — otherwise it would keep writing into the
// deposed primary with no promotion left to catch it. Site-less
// clusters skip the registry entirely.
func (c *Cluster) registerSession(s *Session, dialed *topology.Site) {
	if c.sessions == nil {
		return
	}
	c.topo.WithPrimary(func(primary *topology.Site, dial topology.Dialer) {
		c.sessions[s] = struct{}{}
		if dialed != nil && dialed != primary {
			reroute(s, primary, dial)
		}
	})
}

func (c *Cluster) deregisterSession(s *Session) {
	if c.sessions == nil {
		return
	}
	c.topo.WithPrimary(func(*topology.Site, topology.Dialer) { delete(c.sessions, s) })
}

// rerouteAll is the promotion callback: every open session follows the
// new primary.
func (c *Cluster) rerouteAll(primary *topology.Site, dial topology.Dialer) {
	for s := range c.sessions {
		reroute(s, primary, dial)
	}
}

// reroute points one session at the current primary. Sessions at the
// primary's own site reunify their paths (their reads already hit it);
// other site sessions get a fresh write transport while their reads
// stay on the (still syncing) site replica. Sessions opened at
// PrimarySite have no replica database behind them — left alone, their
// reads would be frozen at the fencing instant forever — so their whole
// path moves.
func reroute(s *Session, primary *topology.Site, dial topology.Dialer) {
	switch s.node {
	case primary:
		s.client.SetPrimary(nil, nil)
	case nil:
		m := s.meter
		if m == nil {
			m = netsim.NewMeter(primary.Link())
		}
		s.client.Reroute(dial(m))
	default:
		wan := s.wan
		if wan == nil {
			wan = netsim.NewMeter(primary.Link())
		}
		s.client.SetPrimary(dial(wan), wan)
	}
}
