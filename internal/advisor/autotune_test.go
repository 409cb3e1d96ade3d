package advisor

import (
	"context"
	"errors"
	"testing"

	"pdmtune/internal/netsim"
	"pdmtune/internal/workload"
)

// TestAutoTunerWindowsBetweenDecisions drives the loop with a fake
// session: failed actions do not advance the window, a decision fires
// after every `every` successful actions and plans on the metrics since
// the previous decision, and an apply refused because the session
// drifted leaves the last applied set as it was, so the next window
// re-plans from the drifted configuration.
func TestAutoTunerWindowsBetweenDecisions(t *testing.T) {
	ctx := context.Background()
	adv := Advisor{}
	// Two writes metered before the loop starts stay out of its windows.
	f := &fakeTunable{obs: Observation{Link: netsim.Intercontinental(), Window: window(0, 0, 2, 1e9)}}
	at := NewAutoTuner(f, 4, adv)
	step := func(m netsim.Metrics, err error) {
		f.obs.Window = f.obs.Window.Add(m)
		at.Step(ctx, err)
	}
	// want is the plan for a session running cur over window.
	want := func(cur Config, window netsim.Metrics) *ChangeSet {
		return adv.Plan(&fakeTunable{cfg: cur, obs: f.obs}, window)
	}
	same := func(what string, got, want *ChangeSet) {
		t.Helper()
		if got == nil || want == nil {
			t.Fatalf("%s: applied %v, want %v", what, got, want)
		}
		if got.ID != want.ID || got.PredictedSec != want.PredictedSec || got.CurrentSec != want.CurrentSec {
			t.Fatalf("%s: applied %s (%.4f s, from %.4f s), want %s (%.4f s, from %.4f s)", what,
				got.ID, got.PredictedSec, got.CurrentSec, want.ID, want.PredictedSec, want.CurrentSec)
		}
		if f.cfg != got.Target {
			t.Fatalf("%s: session runs %s, applied target %s", what, f.cfg, got.Target)
		}
	}

	failed := errors.New("action failed")
	for i := 0; i < 9; i++ {
		step(window(1, 0, 0, 0), failed)
	}
	for i := 0; i < 3; i++ {
		step(window(1, 0, 0, 0), nil)
	}
	if at.Last() != nil || f.applies != 0 {
		t.Fatalf("decided after 3 successful actions of 4 (and 9 failed ones): %v", at.Last())
	}

	// The fourth success decides, on everything since the loop started,
	// the failed actions' metrics included.
	start := f.cfg
	step(window(1, 0, 0, 0), nil)
	same("first window", at.Last(), want(start, window(13, 0, 0, 0)))

	// The next decision sees only the write storm since the first.
	tuned := f.cfg
	for i := 0; i < 4; i++ {
		step(window(0, 0, 1, 5e8), nil)
	}
	same("second window", at.Last(), want(tuned, window(0, 0, 4, 2e9)))
	second := at.Last()

	// A second tuner resets the session right after the loop reads it:
	// the plan is fingerprinted against the configuration it read, the
	// apply is refused, and the last applied set stays the second one.
	applies := f.applies
	f.driftTo = &Config{}
	for i := 0; i < 4; i++ {
		step(window(1, 0, 0, 0), nil)
	}
	if at.Last() != second || f.applies != applies || f.cfg != (Config{}) {
		t.Fatalf("refused apply: last %v (want %s), %d applies (want %d), session runs %s",
			at.Last(), second.ID, f.applies, applies, f.cfg)
	}

	// The next window re-plans from the drifted configuration.
	f.driftTo = nil
	for i := 0; i < 4; i++ {
		step(window(1, 0, 0, 0), nil)
	}
	same("after drift", at.Last(), want(Config{}, window(4, 0, 0, 0)))
	if got := at.Last().Fingerprint; got != (Config{}).Fingerprint() {
		t.Fatalf("re-plan fingerprinted against %s, want the drifted configuration", got)
	}

	// A nil loop is a session without auto-tuning.
	var none *AutoTuner
	none.Step(ctx, nil)
	if none.Last() != nil {
		t.Fatal("nil loop reports a change set")
	}
}

// TestAdvisorPricesItsProduct: the advisor observes the session on its
// own product shape; the zero Product is the paper's δ=7 β=5 σ=0.6 tree.
func TestAdvisorPricesItsProduct(t *testing.T) {
	f := &fakeTunable{obs: Observation{Link: netsim.Intercontinental()}}
	w := window(20, 0, 0, 0)
	paper := Advisor{Product: workload.Config{Depth: 7, Branch: 5, Sigma: 0.6}}
	small := Advisor{Product: workload.Config{Depth: 3, Branch: 3, Sigma: 1}}
	if got, want := (Advisor{}).observe(f, w).Tree, paperTree(); got != want {
		t.Errorf("zero advisor observes tree %+v, want %+v", got, want)
	}
	if a, b := (Advisor{}).Recommend(f, w)[0], paper.Recommend(f, w)[0]; a != b {
		t.Errorf("zero advisor ranks %+v first, the paper's product %+v", a, b)
	}
	if a, b := small.Recommend(f, w)[0], paper.Recommend(f, w)[0]; a.CurrentSec >= b.CurrentSec {
		t.Errorf("a d3b3 product prices the current configuration at %.3f s, the paper's d7b5 at %.3f s",
			a.CurrentSec, b.CurrentSec)
	}
}
