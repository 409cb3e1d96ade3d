package advisor

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"pdmtune/internal/costmodel"
	"pdmtune/internal/netsim"
)

// ParamChange is one knob flip inside a ChangeSet, recorded as strings
// so reports and logs need no knowledge of the knob's type.
type ParamChange struct {
	Param string
	From  string
	To    string
}

func (p ParamChange) String() string { return fmt.Sprintf("%s: %s -> %s", p.Param, p.From, p.To) }

// ChangeSet is the advisor's write product: a complete target
// configuration, fingerprinted against the configuration it was planned
// for, applicable to a Tunable session and revertible. Unlike the
// read-only DiagSnapshot, a ChangeSet is all-or-nothing: it refuses to
// apply against a session whose configuration drifted since planning,
// and it remembers the pre-apply state so Rollback restores it exactly.
type ChangeSet struct {
	// ID identifies the set (derived from the plan's fingerprints).
	ID string
	// Fingerprint is the Knobs.Fingerprint of the configuration the
	// set was planned against; Apply verifies it before touching the
	// session.
	Fingerprint string
	// Target is the complete configuration the set applies.
	Target costmodel.Knobs
	// Changes lists the individual knob flips, for reporting.
	Changes []ParamChange
	// PredictedSec/CurrentSec carry the plan's cost prediction.
	PredictedSec float64
	CurrentSec   float64

	// pre is the configuration captured at Apply time, for Rollback
	// (nil while the set is not applied).
	pre *costmodel.Knobs
}

// Plan builds the change set turning t's current configuration into
// the top recommendation for its workload over window. It returns nil
// when the best candidate is the current configuration itself — nothing
// to change. The set is fingerprinted against the current
// configuration; apply it with ChangeSet.Apply, revert with Rollback.
func (a Advisor) Plan(t Tunable, window netsim.Metrics) *ChangeSet {
	current := t.TuneConfig()
	best := recommend(Classify(a.observe(t, window)), current)[0]
	if best.Config == current {
		return nil
	}
	return NewChangeSet(current, best.Config, best.PredictedSec, best.CurrentSec)
}

// NewChangeSet builds a fingerprinted change set from an explicit
// current/target pair (Plan is the ranked front end).
func NewChangeSet(current, target costmodel.Knobs, predictedSec, currentSec float64) *ChangeSet {
	from, to := current.Fingerprint(), target.Fingerprint()
	sum := sha256.Sum256([]byte(from + ">" + to))
	return &ChangeSet{
		ID:           "cs-" + hex.EncodeToString(sum[:6]),
		Fingerprint:  from,
		Target:       target,
		Changes:      Diff(current, target),
		PredictedSec: predictedSec,
		CurrentSec:   currentSec,
	}
}

// Apply verifies the target session still runs the configuration the
// set was planned against (by fingerprint), captures it for Rollback,
// and applies the target configuration. Applying an already-applied set
// is an error.
func (cs *ChangeSet) Apply(ctx context.Context, t Tunable) error {
	if cs.pre != nil {
		return fmt.Errorf("advisor: change set %s already applied", cs.ID)
	}
	cur := t.TuneConfig()
	if got := cur.Fingerprint(); got != cs.Fingerprint {
		return fmt.Errorf("advisor: change set %s was planned against configuration %s, session now runs %s — re-plan",
			cs.ID, cs.Fingerprint, got)
	}
	if err := t.ApplyConfig(ctx, cs.Target); err != nil {
		return fmt.Errorf("advisor: applying change set %s: %w", cs.ID, err)
	}
	cs.pre = &cur
	return nil
}

// Rollback restores the configuration captured at Apply time. It
// verifies the session still runs the set's target (no second tuner
// interfered), applies the pre-apply configuration and re-arms the set.
func (cs *ChangeSet) Rollback(ctx context.Context, t Tunable) error {
	if cs.pre == nil {
		return fmt.Errorf("advisor: change set %s is not applied", cs.ID)
	}
	if got := t.TuneConfig().Fingerprint(); got != cs.Target.Fingerprint() {
		return fmt.Errorf("advisor: session drifted to configuration %s since change set %s was applied — not rolling back",
			got, cs.ID)
	}
	if err := t.ApplyConfig(ctx, *cs.pre); err != nil {
		return fmt.Errorf("advisor: rolling back change set %s: %w", cs.ID, err)
	}
	cs.pre = nil
	return nil
}

// Diff lists the parameter changes turning `from` into `to`, in
// canonical field order. An empty diff means the configurations are
// identical.
func Diff(from, to costmodel.Knobs) []ParamChange {
	var out []ParamChange
	a, b := from.Fields(), to.Fields()
	for i := range a {
		if a[i].Value != b[i].Value {
			out = append(out, ParamChange{Param: a[i].Name, From: fmt.Sprint(a[i].Value), To: fmt.Sprint(b[i].Value)})
		}
	}
	return out
}

// Tunable is the advisor's handle on a running session: observe it,
// read the live configuration, apply a new one. *pdmtune.Session
// implements it; the indirection keeps the advisor free of the facade
// package (which imports it back).
type Tunable interface {
	// Observe returns the session's observation over its whole metered
	// history: Window is its Metrics, Tree is left zero.
	Observe() Observation
	// TuneConfig returns the session's current runtime configuration.
	TuneConfig() costmodel.Knobs
	// ApplyConfig reconfigures the live session to k. Implementations
	// must be all-or-nothing as far as their knobs allow and must make
	// a follow-up TuneConfig return k.
	ApplyConfig(ctx context.Context, k costmodel.Knobs) error
}
