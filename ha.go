package pdmtune

import (
	"pdmtune/internal/core"
	"pdmtune/internal/failover"
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
// primary is safe: a Session re-issues it once when the cluster term
// has moved on, and returns the error otherwise — as a session over
// the caller's own transport (WithTransport) always does.
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
// it ("unknown-site", "already-primary", "quorum", "epoch-lag" or
// "subscription-coverage").
type PromoteError = topology.PromoteError

// follow is the Follow hook of a session route built at fencing term
// term: once a promotion has moved the term on, it rebuilds the
// session's connections against the new primary, under the
// control-plane lock, which a promotion holds until its topology is
// complete; after a fenced write the hook takes that lock even before
// the term moved, which waits out the promotion that fenced it.
func (s *Session) follow(term uint64) func(fenced bool) *core.Route {
	topo := s.sys.cluster.topo
	return func(fenced bool) (r *core.Route) {
		if !fenced && topo.Term() == term {
			return nil
		}
		topo.WithPrimary(func(primary *topology.Site, dial topology.Dialer) {
			if topo.Term() != term {
				r = s.connect(nil, nil, primary, dial)
				r.Follow = s.follow(topo.Term())
			}
		})
		return r
	}
}

// connect builds session s's connections against primary, reached
// through dial: the one place a session's wire clients are made. At
// open, read is the transport of the session's new read client, which
// stamps write frames with the cluster term and retries idempotent
// exchanges under retry. When following a promotion read is nil: a site
// session keeps reading at its site, and a session opened at
// PrimarySite, which has no replica database behind it, has its read
// client redialed to primary (term, retry policy and encodings carry
// over) so its reads do not stay frozen at the fencing instant. A
// session at a site other than the primary writes over a client of its
// own to primary, charged to its WAN meter and carrying the term alone:
// no retry policy, as the write path never re-sends at the wire layer,
// and no encodings. Every other session writes over its read client.
func (s *Session) connect(read Transport, retry *wire.RetryPolicy, primary *topology.Site, dial topology.Dialer) *core.Route {
	term := s.sys.cluster.topo.TermSource()
	r := &core.Route{}
	switch {
	case read != nil:
		r.Read = wire.NewClient(read)
		r.Read.SetTermSource(term)
		r.Read.SetRetry(retry)
	case s.node == nil:
		r.Read = s.client.Route().Read.Redial(dial(s.meter))
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
