package advisor

import (
	"context"

	"pdmtune/internal/netsim"
)

// AutoTuner is the closed loop over one Tunable: every `every`
// completed actions it plans against the window since its previous
// decision and applies the plan to the session.
type AutoTuner struct {
	adv   Advisor
	t     Tunable
	every int
	n     int
	prev  netsim.Metrics
	last  *ChangeSet
}

// NewAutoTuner starts a loop over t that decides after every `every`
// completed actions (every < 1 means 1), windowed from t's metrics now.
func NewAutoTuner(t Tunable, every int, a Advisor) *AutoTuner {
	return &AutoTuner{adv: a, t: t, every: max(every, 1), prev: t.Observe().Window}
}

// Step advances the loop by one finished action and plans and applies
// when the window is full. A failed action does not advance the window
// (its metrics still accumulate and are observed by the next full
// window). A nil loop does nothing, so a session without one calls Step
// all the same.
func (at *AutoTuner) Step(ctx context.Context, actionErr error) {
	if at == nil || actionErr != nil {
		return
	}
	if at.n++; at.n < at.every {
		return
	}
	at.n = 0
	now := at.t.Observe().Window
	cs := at.adv.Plan(at.t, now.Sub(at.prev))
	at.prev = now
	// Best effort: a plan that cannot apply (the session drifted under
	// a concurrent manual tuner) leaves the session as it is; the next
	// window re-plans from the live configuration.
	if cs != nil && cs.Apply(ctx, at.t) == nil {
		at.last = cs
	}
}

// Last returns the change set the loop applied most recently (nil
// before the first one, and for a nil loop). Rolling it back restores
// the pre-apply configuration; the loop keeps running and may re-plan
// at the next window.
func (at *AutoTuner) Last() *ChangeSet {
	if at == nil {
		return nil
	}
	return at.last
}
