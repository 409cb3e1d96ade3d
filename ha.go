package pdmtune

import (
	"pdmtune/internal/core"
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

// reroute points one session at the current primary (see connect).
func reroute(s *Session, primary *topology.Site, dial topology.Dialer) {
	s.client.SetRoute(s.connect(nil, nil, primary, dial))
}

// connect builds session s's connections against primary, reached
// through dial: the one place a session's wire clients are made. At
// open, read is the transport of the session's new read client, which
// stamps write frames with the cluster term and retries idempotent
// exchanges under retry. At a re-route read is nil: a site session keeps
// reading at its site, and a session opened at PrimarySite, which has
// no replica database behind it, has its read client redialed to
// primary (term, retry policy and encodings carry over) so its reads do
// not stay frozen at the fencing instant. A session at a site other
// than the primary writes over a client of its own to primary, charged
// to its WAN meter and carrying the term alone: no retry policy, as the
// write path never re-sends at the wire layer, and no encodings. Every
// other session writes over its read client.
func (s *Session) connect(read Transport, retry *wire.RetryPolicy, primary *topology.Site, dial topology.Dialer) core.Route {
	term := s.sys.cluster.topo.TermSource()
	var r core.Route
	switch {
	case read != nil:
		r.Read = wire.NewClient(read)
		r.Read.SetTermSource(term)
		r.Read.SetRetry(retry)
	case s.node == nil:
		m := s.meter
		if m == nil {
			m = netsim.NewMeter(primary.Link())
		}
		r.Read = s.client.Route().Read.Redial(dial(m))
	default:
		r.Read = s.client.Route().Read
	}
	r.Write = r.Read
	if s.node != nil && s.node != primary {
		r.Write = wire.NewClient(dial(s.wan))
		r.Write.SetTermSource(term)
		r.WriteMeter = s.wan
	}
	return r
}
