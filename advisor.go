package pdmtune

import (
	"context"

	"pdmtune/internal/advisor"
	"pdmtune/internal/costmodel"
)

// Re-exported advisor types: the auto-tuning API of the reproduction.
type (
	// TuneConfig is the complete tunable configuration of one session:
	// what the With… options set, what a ChangeSet flips and a rollback
	// restores, and what the cost model prices — one knob set.
	TuneConfig = costmodel.Knobs
	// Observation is one windowed look at a live session or fleet.
	Observation = advisor.Observation
	// WorkloadProfile is the classified shape of an observation.
	WorkloadProfile = advisor.WorkloadProfile
	// WorkloadShape is the advisor's coarse classification.
	WorkloadShape = advisor.Shape
	// Recommendation is one ranked candidate configuration.
	Recommendation = advisor.Recommendation
	// ChangeSet is a fingerprinted, rollback-capable reconfiguration.
	ChangeSet = advisor.ChangeSet
	// ParamChange is one knob flip inside a ChangeSet.
	ParamChange = advisor.ParamChange
	// DiagSnapshot is the advisor's degradable read-only report.
	DiagSnapshot = advisor.DiagSnapshot
	// Tunable is anything the advisor can reconfigure; *Session
	// implements it.
	Tunable = advisor.Tunable
)

// Workload-shape constants, re-exported from the advisor.
const (
	ShapeColdRead    = advisor.ColdRead
	ShapeRepeatRead  = advisor.RepeatRead
	ShapeWriteHeavy  = advisor.WriteHeavy
	ShapeReplicaRead = advisor.ReplicaRead
)

// Advisor closes the paper's tuning loop over a live session: observe a
// windowed metrics delta, classify the workload shape, rank candidate
// configurations with the analytic cost model, and either report
// (Diagnose) or act (Plan → ChangeSet.Apply / Rollback). The zero value
// assumes the paper's δ=7, β=5, σ=0.6 scenario; set Product to match
// the deployment being tuned.
type Advisor struct {
	// Product is the product shape under traversal (the paper's
	// worldwide scenario when zero).
	Product ProductConfig
}

func (a *Advisor) tree() costmodel.Tree {
	p := a.Product
	if p.Depth == 0 {
		p = ProductConfig{Depth: 7, Branch: 5, Sigma: 0.6}
	}
	return costmodel.Tree{Depth: p.Depth, Branch: p.Branch, Sigma: p.Sigma}
}

// Observe assembles the advisor's observation of a session from a
// windowed metrics delta (snapshot the session's Metrics before and
// after the window and pass window.Sub(prev) — or the full Metrics
// for an everything-so-far window). At a partial site, the
// subscription coverage is measured from the site meter: the share of
// pulled rows the subscription kept. A full replica's is 0, whatever
// its meter kept from an earlier subscription.
func (a *Advisor) Observe(s *Session, window Metrics) Observation {
	obs := Observation{
		Window: window,
		Tree:   a.tree(),
	}
	if s.site != PrimarySite {
		obs.Site = s.site
		if s.wan != nil {
			obs.Link = s.wan.Link
		}
		if s.meter != nil {
			obs.LocalLink = s.meter.Link
		}
		// Estimate the per-pull delta volume from the site's replication
		// history, when there is one.
		m := s.node.Metrics()
		if m.SyncRoundTrips > 0 {
			obs.SyncBytes = m.ResponseBytes / float64(m.SyncRoundTrips)
		}
		if pulled := m.SubscribedRows + m.SkippedRows; pulled > 0 && s.node.Partial() {
			obs.Coverage = float64(m.SubscribedRows) / float64(pulled)
		}
	} else if s.meter != nil {
		obs.Link = s.meter.Link
	}
	return obs
}

// Recommend ranks candidate configurations for the session under the
// observed window and returns the top-k with predicted deltas.
func (a *Advisor) Recommend(s *Session, window Metrics) []Recommendation {
	return advisor.Recommend(a.Observe(s, window), s.TuneConfig())
}

// Diagnose returns the read-only report for the session under the
// observed window: traffic, classified profile, ranked
// recommendations. Sections degrade independently — an empty window
// still reports the configuration.
func (a *Advisor) Diagnose(s *Session, window Metrics) *DiagSnapshot {
	return advisor.Diagnose(a.Observe(s, window), s.TuneConfig())
}

// Plan builds the change set turning the session's current
// configuration into the advisor's top pick for the observed window —
// nil when the session already runs it. The set is fingerprinted
// against the current configuration; apply it with ChangeSet.Apply and
// revert with ChangeSet.Rollback.
func (a *Advisor) Plan(s *Session, window Metrics) *ChangeSet {
	return advisor.Plan(a.Observe(s, window), s.TuneConfig())
}

// Classify exposes the advisor's workload classification.
func Classify(o Observation) WorkloadProfile { return advisor.Classify(o) }

// Diagnose returns the attached advisor's read-only report over the
// session's whole metered history so far. Nil without WithAdvisor or
// WithAutoTune; observe a specific window by calling Advisor.Diagnose
// with a Metrics delta instead.
func (s *Session) Diagnose() *DiagSnapshot {
	if s.advisor == nil {
		return nil
	}
	return s.advisor.Diagnose(s, s.Metrics())
}

// PlanTune builds the attached advisor's change set for the session's
// whole metered history so far — nil without WithAdvisor/WithAutoTune,
// or when the session already runs the advisor's pick. The set is not
// applied; call ChangeSet.Apply (and, to revert, Rollback).
func (s *Session) PlanTune() *ChangeSet {
	if s.advisor == nil {
		return nil
	}
	return s.advisor.Plan(s, s.Metrics())
}

// ---------------------------------------------------------------------------
// Session as a Tunable

// TuneConfig returns the session's tunable configuration: the knob set
// its client runs (core.Client.Knobs). Wire encodings report what the
// session requested (WireCaps holds what the server accepted); Replica
// reports whether the session reads at a site.
func (s *Session) TuneConfig() TuneConfig { return s.client.Knobs() }

// ApplyConfig reconfigures the live session to k through its client
// (core.Client.Apply): everything flips locally except changed wire
// encodings, which cost one renegotiation round trip. A new read
// location and a resize or drop of a shared cache are refused before
// anything changes.
func (s *Session) ApplyConfig(ctx context.Context, k TuneConfig) error {
	return s.client.Apply(ctx, k)
}

// ---------------------------------------------------------------------------
// The closed loop (WithAutoTune)

// autoTuner is the session's auto-apply state: every `every` completed
// actions, re-observe the window since the last decision and apply the
// advisor's plan.
type autoTuner struct {
	every int
	n     int
	prev  Metrics
	last  *ChangeSet
}

// afterAction advances the auto-tuner by one completed user action and
// fires a plan-and-apply when the window is full. Failed actions do not
// advance the window (their metrics still accumulate and are observed
// by the next full window).
func (s *Session) afterAction(ctx context.Context, actionErr error) {
	if s.auto == nil || actionErr != nil {
		return
	}
	s.auto.n++
	if s.auto.n < s.auto.every {
		return
	}
	s.auto.n = 0
	now := s.Metrics()
	window := now.Sub(s.auto.prev)
	s.auto.prev = now
	cs := s.advisor.Plan(s, window)
	if cs == nil {
		return
	}
	// Best effort: an auto-tune that cannot apply (e.g. the session
	// drifted under a concurrent manual tuner) leaves the session as it
	// is; the next window re-plans from the live configuration.
	if err := cs.Apply(ctx, s); err == nil {
		s.auto.last = cs
	}
}

// LastAutoTune returns the change set the auto-tuner applied most
// recently (nil before the first one). Rolling it back restores the
// pre-apply configuration; the auto-tuner keeps running and may re-plan
// at the next window.
func (s *Session) LastAutoTune() *ChangeSet {
	if s.auto == nil {
		return nil
	}
	return s.auto.last
}
