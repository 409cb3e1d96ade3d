package pdmtune

import (
	"context"

	"pdmtune/internal/advisor"
	"pdmtune/internal/costmodel"
)

// Re-exported advisor types: the auto-tuning API of the reproduction.
type (
	// Advisor closes the paper's tuning loop over a live session for
	// one product shape: adv.Diagnose(sess, window) reports,
	// adv.Plan(sess, window) returns a ChangeSet to Apply (and
	// Rollback), adv.Recommend(sess, window) ranks. The zero value
	// assumes the paper's δ=7, β=5, σ=0.6 scenario; set Product to
	// match the deployment being tuned.
	Advisor = advisor.Advisor
	// TuneConfig is the complete tunable configuration of one session:
	// what the With… options set, what a ChangeSet flips and a rollback
	// restores, and what the cost model prices — one knob set.
	TuneConfig = costmodel.Knobs
	// Observation is one windowed look at a live session.
	Observation = advisor.Observation
	// Recommendation is one ranked candidate configuration.
	Recommendation = advisor.Recommendation
	// ChangeSet is a fingerprinted, rollback-capable reconfiguration.
	ChangeSet = advisor.ChangeSet
	// DiagSnapshot is the advisor's degradable read-only report.
	DiagSnapshot = advisor.DiagSnapshot
)

// ---------------------------------------------------------------------------
// Session as an advisor.Tunable

// Observe returns the session's observation over its whole metered
// history (Window is Metrics(); an Advisor sets the window it is given
// and the tree of its Product). At a site it carries the WAN link, the
// site-local link and the site's replication history: the payload of
// one pull, and the subscription coverage, measured from the site meter
// as the share of pulled rows the subscription kept. A full replica's
// coverage is 0, whatever its meter kept from an earlier subscription.
func (s *Session) Observe() Observation {
	obs := Observation{Window: s.Metrics(), Site: s.site}
	if s.site == PrimarySite {
		if s.meter != nil {
			obs.Link = s.meter.Link
		}
		return obs
	}
	obs.Link = s.wan.Link
	if s.meter != nil {
		obs.LocalLink = s.meter.Link
	}
	// Each pull's charged response volume, less the half-filled last
	// packet the link adds to it, is the payload the model prices.
	m := s.node.Metrics()
	if m.SyncRoundTrips > 0 {
		obs.SyncBytes = m.ResponseBytes/float64(m.SyncRoundTrips) - float64(obs.Link.PacketBytes)/2
	}
	if pulled := m.SubscribedRows + m.SkippedRows; pulled > 0 && s.node.Partial() {
		obs.Coverage = float64(m.SubscribedRows) / float64(pulled)
	}
	return obs
}

// TuneConfig returns the session's tunable configuration: the knob set
// its client runs (core.Client.Knobs). Wire encodings report what the
// session requested (WireCaps holds what the server accepted); Replica
// reports whether the session reads at a site.
func (s *Session) TuneConfig() TuneConfig { return s.client.Knobs() }

// ApplyConfig reconfigures the live session to k through its client
// (core.Client.Apply): everything flips locally except changed wire
// encodings, which cost one renegotiation round trip. A new read
// location is refused before anything changes.
func (s *Session) ApplyConfig(ctx context.Context, k TuneConfig) error {
	return s.client.Apply(ctx, k)
}

// LastAutoTune returns the change set WithAutoTune's loop applied most
// recently (nil before the first one, and without WithAutoTune).
// Rolling it back restores the pre-apply configuration; the loop keeps
// running and may re-plan at the next window.
func (s *Session) LastAutoTune() *ChangeSet { return s.auto.Last() }
