package advisor

import (
	"context"
	"strings"
	"testing"

	"pdmtune/internal/costmodel"
	"pdmtune/internal/netsim"
)

// Config keeps the tests short: the advisor's configuration type is the
// cost model's knob set.
type Config = costmodel.Knobs

func paperTree() costmodel.Tree { return costmodel.Tree{Depth: 7, Branch: 5, Sigma: 0.6} }

// rank is Recommend for a session that runs cur and observes o.
func rank(o Observation, cur Config) []Recommendation {
	return Advisor{}.Recommend(&fakeTunable{cfg: cur, obs: o}, o.Window)
}

// window builds an observation window with the given action mix.
func window(reads, repeats, writes int, lockWaitNanos int64) netsim.Metrics {
	return netsim.Metrics{
		ReadActions:   reads,
		RepeatActions: repeats,
		WriteActions:  writes,
		LockWaitNanos: lockWaitNanos,
		RoundTrips:    reads + writes,
		LatencySec:    float64(reads+writes) * 0.3,
	}
}

// TestClassifyShapes distills the windows of five typical sessions and
// checks the mix each one hands the ranking: no label, only the
// fractions the candidates are priced on.
func TestClassifyShapes(t *testing.T) {
	tests := []struct {
		name                            string
		obs                             Observation
		writeFrac, repeatFrac, lockWait float64
	}{
		{
			name: "cold deep scan",
			obs:  Observation{Window: window(20, 0, 0, 0), Tree: paperTree()},
		},
		{
			name:       "warm repeat-heavy",
			obs:        Observation{Window: window(20, 15, 1, 0), Tree: paperTree()},
			writeFrac:  1.0 / 21,
			repeatFrac: 0.75,
		},
		{
			name:       "check-in storm",
			obs:        Observation{Window: window(10, 2, 12, 5e8), Tree: paperTree()},
			writeFrac:  12.0 / 22,
			repeatFrac: 0.2,
			lockWait:   0.5 / 12,
		},
		{
			name: "replica readers",
			obs: Observation{Window: window(20, 4, 1, 0), Site: "hamburg",
				LocalLink: netsim.LAN(), Tree: paperTree()},
			writeFrac:  1.0 / 21,
			repeatFrac: 0.2,
		},
		{
			name: "empty window defaults cold",
			obs:  Observation{Tree: paperTree()},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := Classify(tc.obs)
			if p.WriteFrac != tc.writeFrac || p.RepeatFrac != tc.repeatFrac || p.LockWaitSec != tc.lockWait {
				t.Errorf("write_frac=%v repeat_frac=%v lock_wait=%v, want %v %v %v",
					p.WriteFrac, p.RepeatFrac, p.LockWaitSec, tc.writeFrac, tc.repeatFrac, tc.lockWait)
			}
			if p.Action != costmodel.MLE {
				t.Errorf("action = %v, want MLE", p.Action)
			}
			if p.Tree != tc.obs.Tree || p.LocalNet != tc.obs.LocalLink {
				t.Errorf("model not carried over: %+v", p.Model)
			}
		})
	}
}

func TestClassifyDistillsWorkload(t *testing.T) {
	obs := Observation{
		Window:   window(10, 5, 10, 2e9), // 0.2s lock wait per write
		Link:     netsim.Intercontinental(),
		Tree:     paperTree(),
		Coverage: 0.4,
	}
	p := Classify(obs)
	if p.WriteFrac != 0.5 {
		t.Errorf("write frac = %v, want 0.5", p.WriteFrac)
	}
	if p.RepeatFrac != 0.5 {
		t.Errorf("repeat frac = %v, want 0.5", p.RepeatFrac)
	}
	if p.LockWaitSec != 0.2 {
		t.Errorf("lock wait = %v sec/write, want 0.2", p.LockWaitSec)
	}
	if p.Coverage != 0.4 || p.Net.LatencySec != 0.15 {
		t.Errorf("environment not carried over: %+v", p)
	}
	if p.ActionsPerSec <= 0 {
		t.Errorf("action rate not derived from the window: %+v", p)
	}
}

func TestRecommendPrefersShapeKnobs(t *testing.T) {
	base := Observation{Link: netsim.Intercontinental(), Tree: paperTree()}

	// Cold deep scan: the winner must avoid per-node round trips
	// (recursion, or batching) — never plain late evaluation.
	cold := base
	cold.Window = window(20, 0, 0, 0)
	best := rank(cold, Config{})[0].Config
	if !best.Batching && best.Strategy != costmodel.Recursive {
		t.Errorf("cold scan winner neither batches nor recurses: %s", best)
	}

	// Repeat-heavy: the winner must run a cache.
	warm := base
	warm.Window = window(20, 18, 0, 0)
	best = rank(warm, Config{})[0].Config
	if best.CacheEntries == 0 {
		t.Errorf("repeat-heavy winner has no cache: %s", best)
	}

	// Write-heavy: the winner must batch its modifies.
	storm := base
	storm.Window = window(5, 0, 20, 1e9)
	best = rank(storm, Config{})[0].Config
	if !best.Batching {
		t.Errorf("write-heavy winner does not batch: %s", best)
	}

	// Replica reads: the winner must not sync before every action.
	replica := base
	replica.Site = "tokyo"
	replica.Window = window(30, 10, 1, 0)
	replica.SyncBytes = 64 * 1024
	best = rank(replica, Config{Replica: true})[0].Config
	if !best.Replica {
		t.Errorf("replica winner moved the session off its site: %s", best)
	}
	if best.StalenessSec <= 0 {
		t.Errorf("replica winner syncs before every action: %s", best)
	}
}

func TestRecommendRanksAndReportsDelta(t *testing.T) {
	obs := Observation{Window: window(20, 0, 0, 0), Link: netsim.Intercontinental(), Tree: paperTree()}
	recs := rank(obs, Config{})
	if len(recs) != topK {
		t.Fatalf("got %d recommendations, want %d", len(recs), topK)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].PredictedSec < recs[i-1].PredictedSec {
			t.Errorf("ranking out of order at %d: %.3f < %.3f", i, recs[i].PredictedSec, recs[i-1].PredictedSec)
		}
	}
	// The unoptimized baseline is the current config, so the winner
	// must predict a saving.
	if recs[0].DeltaPct <= 0 {
		t.Errorf("winner predicts no saving over the late-eval baseline: %+v", recs[0])
	}
}

func TestConfigFingerprint(t *testing.T) {
	a := Config{Strategy: costmodel.Recursive, Batching: true, CacheEntries: 256}
	b := a
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical configs fingerprint differently")
	}
	b.CacheEntries = 128
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different configs share a fingerprint")
	}
}

// TestCandidatesKeepWhatTheSessionCannotChange: the read location is
// not the session's to flip, and the replica knobs mean nothing at the
// primary — every candidate carries them unchanged, so a plan never
// contains a change ApplyConfig must refuse.
func TestCandidatesKeepWhatTheSessionCannotChange(t *testing.T) {
	for _, current := range []Config{
		{StalenessSec: -1},
		{Replica: true},
	} {
		cands := candidates(current)
		if len(cands) == 0 {
			t.Fatalf("%s: no candidates", current)
		}
		for _, c := range cands {
			if c.Replica != current.Replica {
				t.Fatalf("from %s: candidate %s changes the location", current, c)
			}
			if !current.Replica && c.StalenessSec != current.StalenessSec {
				t.Fatalf("from %s: candidate %s enumerates replica knobs at the primary", current, c)
			}
		}
	}
}

func TestDiff(t *testing.T) {
	from := Config{}
	to := Config{Strategy: costmodel.Recursive, Batching: true}
	d := Diff(from, to)
	if len(d) != 2 {
		t.Fatalf("diff = %v, want 2 changes", d)
	}
	if len(Diff(to, to)) != 0 {
		t.Error("self-diff is not empty")
	}
}

// fakeTunable is an in-memory Tunable: it runs cfg and observes obs,
// whose Window is its metered history so far. driftTo, when set, is
// the configuration a second tuner moves it to right after each read.
type fakeTunable struct {
	cfg     Config
	obs     Observation
	applies int
	fail    bool
	driftTo *Config
}

func (f *fakeTunable) Observe() Observation { return f.obs }
func (f *fakeTunable) TuneConfig() Config {
	cfg := f.cfg
	if f.driftTo != nil {
		f.cfg = *f.driftTo
	}
	return cfg
}
func (f *fakeTunable) ApplyConfig(_ context.Context, c Config) error {
	if f.fail {
		return context.DeadlineExceeded
	}
	f.cfg = c
	f.applies++
	return nil
}

func TestChangeSetApplyRollback(t *testing.T) {
	ctx := context.Background()
	start := Config{Strategy: costmodel.EarlyEval}
	target := Config{Strategy: costmodel.Recursive, Batching: true, CacheEntries: 64}
	sess := &fakeTunable{cfg: start}

	cs := NewChangeSet(start, target, 1, 2)
	if len(cs.Changes) == 0 || cs.ID == "" {
		t.Fatalf("change set incomplete: %+v", cs)
	}
	if err := cs.Apply(ctx, sess); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if sess.cfg.Fingerprint() != target.Fingerprint() {
		t.Fatalf("session runs %s after apply, want %s", sess.cfg, target)
	}
	if err := cs.Apply(ctx, sess); err == nil {
		t.Error("double apply did not fail")
	}
	if err := cs.Rollback(ctx, sess); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if sess.cfg.Fingerprint() != start.Fingerprint() {
		t.Fatalf("session runs %s after rollback, want %s — fingerprint mismatch", sess.cfg, start)
	}
	if err := cs.Rollback(ctx, sess); err == nil {
		t.Error("rollback of an unapplied set did not fail")
	}
	// A rolled-back set is re-armed.
	if err := cs.Apply(ctx, sess); err != nil {
		t.Errorf("re-apply after rollback: %v", err)
	}
}

func TestChangeSetRefusesDriftedSession(t *testing.T) {
	ctx := context.Background()
	start := Config{}
	cs := NewChangeSet(start, Config{Batching: true}, 1, 2)

	drifted := &fakeTunable{cfg: Config{Strategy: costmodel.Recursive}}
	if err := cs.Apply(ctx, drifted); err == nil {
		t.Fatal("apply against a drifted session did not fail")
	}
	if drifted.applies != 0 {
		t.Error("drifted session was reconfigured anyway")
	}

	// Drift after apply blocks rollback too.
	sess := &fakeTunable{cfg: start}
	if err := cs.Apply(ctx, sess); err != nil {
		t.Fatalf("apply: %v", err)
	}
	sess.cfg = Config{Strategy: costmodel.EarlyEval} // a second tuner interfered
	if err := cs.Rollback(ctx, sess); err == nil {
		t.Error("rollback against a drifted session did not fail")
	}
}

func TestPlanReturnsNilWhenAlreadyOptimal(t *testing.T) {
	obs := Observation{Window: window(20, 0, 0, 0), Link: netsim.Intercontinental(), Tree: paperTree()}
	best := rank(obs, Config{})[0].Config
	if cs := (Advisor{}).Plan(&fakeTunable{cfg: best, obs: obs}, obs.Window); cs != nil {
		t.Errorf("planning from the optimum produced a change set: %+v", cs.Changes)
	}
	if cs := (Advisor{}).Plan(&fakeTunable{obs: obs}, obs.Window); cs == nil {
		t.Error("planning from the baseline produced nothing")
	}
}

func TestDiagnoseDegrades(t *testing.T) {
	// Full observation: every section available.
	obs := Observation{Window: window(20, 10, 2, 1e8), Link: netsim.Intercontinental(), Tree: paperTree()}
	d := Advisor{}.Diagnose(&fakeTunable{obs: obs}, obs.Window)
	for _, name := range []string{"config", "window", "profile", "recommendations"} {
		if s, ok := d.Sections[name]; !ok || !s.Available {
			t.Errorf("section %q unavailable in a full diagnosis: %+v", name, s)
		}
	}
	if !strings.Contains(d.String(), "rank1") {
		t.Errorf("rendered diagnosis lacks recommendations:\n%s", d)
	}

	// Empty window: degraded but not gone.
	d = Advisor{}.Diagnose(&fakeTunable{}, netsim.Metrics{})
	if s := d.Sections["config"]; !s.Available {
		t.Error("config section must survive an empty window")
	}
	for _, name := range []string{"window", "profile", "recommendations"} {
		s := d.Sections[name]
		if s.Available || s.Error == "" {
			t.Errorf("section %q should be degraded with a reason, got %+v", name, s)
		}
	}
}
