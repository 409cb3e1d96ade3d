package pdmtune_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"pdmtune"
	"pdmtune/internal/advisor"
	"pdmtune/internal/costmodel"
	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
)

// advisorProduct is the shape the advisor tests traverse: deep enough
// that the knobs matter, small enough to simulate many configurations.
var advisorProduct = pdmtune.ProductConfig{Depth: 4, Branch: 3, Sigma: 1, Seed: 7, PadBytes: 64}

func newAdvisorSystem(t *testing.T) (*pdmtune.System, *pdmtune.Product) {
	t.Helper()
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(advisorProduct)
	if err != nil {
		t.Fatal(err)
	}
	return sys, prod
}

// TestAdvisorOptionConflicts: every conflicting pair among the advisor
// options fails Open up front with one structured *OptionError, in
// either order.
func TestAdvisorOptionConflicts(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	if err := sys.LoadPaperExample(); err != nil {
		t.Fatal(err)
	}
	tr := func() pdmtune.Transport {
		return pdmtune.MeteredTransport(
			&wire.MeteredChannel{Conn: sys.Server.NewConn()}, netsim.NewMeter(pdmtune.LAN()))
	}

	cases := []struct {
		name string
		open func() (*pdmtune.Session, error)
	}{
		{"WithAutoTune+WithTransport", func() (*pdmtune.Session, error) {
			return sys.Open(pdmtune.WithAutoTune(4, pdmtune.Advisor{}), pdmtune.WithTransport(tr()))
		}},
		{"WithTransport+WithAutoTune", func() (*pdmtune.Session, error) {
			return sys.Open(pdmtune.WithTransport(tr()), pdmtune.WithAutoTune(4, pdmtune.Advisor{}))
		}},
	}
	for _, tc := range cases {
		_, err := tc.open()
		if err == nil {
			t.Errorf("%s: Open succeeded, want *OptionError", tc.name)
			continue
		}
		var oe *pdmtune.OptionError
		if !errors.As(err, &oe) {
			t.Errorf("%s: error %v (%T), want *OptionError", tc.name, err, err)
		}
	}

	// The non-conflicting spelling still works.
	if _, err := sys.Open(pdmtune.WithAutoTune(8, pdmtune.Advisor{})); err != nil {
		t.Errorf("WithAutoTune alone: %v", err)
	}
}

// TestAdvisorOnCustomTransports: the advisor runs on any session. On a
// bare custom transport, which has no meter, the diagnosis reports its
// window as unavailable instead of failing; on a metered one it plans
// from the window like on the default transport.
func TestAdvisorOnCustomTransports(t *testing.T) {
	sys, prod := newAdvisorSystem(t)
	adv := pdmtune.Advisor{Product: prod.Config}
	conn := func() pdmtune.Transport { return &wire.MeteredChannel{Conn: sys.Server.NewConn()} }

	bare, err := sys.Open(pdmtune.WithStrategy(pdmtune.LateEval), pdmtune.WithTransport(conn()))
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	coldScan(t, bare, prod)
	d := adv.Diagnose(bare, bare.Metrics())
	if s := d.Sections["window"]; s.Available || s.Error == "" {
		t.Errorf("unmetered session: window section %+v, want unavailable with a reason", s)
	}
	if s := d.Sections["config"]; !s.Available {
		t.Errorf("unmetered session: config section unavailable: %+v", s)
	}

	meter := netsim.NewMeter(pdmtune.Intercontinental())
	metered, err := sys.Open(pdmtune.WithStrategy(pdmtune.LateEval),
		pdmtune.WithTransport(pdmtune.MeteredTransport(conn(), meter)), pdmtune.WithMeter(meter))
	if err != nil {
		t.Fatal(err)
	}
	defer metered.Close()
	coldScan(t, metered, prod)
	if cs := adv.Plan(metered, metered.Metrics()); cs == nil {
		t.Error("metered custom transport: no plan after an untuned cold scan")
	}
}

// shapeDriver drives one workload shape against a session. Drivers are
// deterministic and leave the database as they found it (writes are
// paired check-out/check-in), so sequential sessions see identical
// work.
type shapeDriver func(t *testing.T, sess *pdmtune.Session, prod *pdmtune.Product)

func coldScan(t *testing.T, sess *pdmtune.Session, prod *pdmtune.Product) {
	t.Helper()
	ctx := context.Background()
	// Each level-1 assembly once, plus the full product: all distinct
	// targets, no repeats.
	for _, id := range prod.Nodes[prod.RootID].Children {
		if _, err := sess.MultiLevelExpand(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.MultiLevelExpand(ctx, prod.RootID); err != nil {
		t.Fatal(err)
	}
}

func warmRepeat(t *testing.T, sess *pdmtune.Session, prod *pdmtune.Product) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := sess.MultiLevelExpand(ctx, prod.RootID); err != nil {
			t.Fatal(err)
		}
	}
}

func writeStorm(t *testing.T, sess *pdmtune.Session, prod *pdmtune.Product) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		for _, id := range prod.Nodes[prod.RootID].Children {
			if _, err := sess.CheckOut(ctx, id); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.CheckIn(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// simulateConfig measures the simulated seconds one configuration costs
// for a driver: a fresh session is reconfigured to cfg, its meters are
// reset (the reconfiguration round trips are open-time cost, not
// workload cost), and the driver runs.
func simulateConfig(t *testing.T, sys *pdmtune.System, prod *pdmtune.Product,
	cfg pdmtune.TuneConfig, drive shapeDriver) float64 {
	t.Helper()
	sess, err := sys.Open(pdmtune.WithStrategy(pdmtune.LateEval))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.ApplyConfig(context.Background(), cfg); err != nil {
		t.Fatalf("applying %s: %v", cfg, err)
	}
	sess.ResetMetrics()
	drive(t, sess, prod)
	return sess.Metrics().TotalSec()
}

// TestAdvisorWithinTwoOfHandPicked is the subsystem's acceptance bar:
// on three workload shapes, the configuration the advisor picks from
// observed metrics must land within 2x of the best hand-picked
// configuration's simulated cost.
func TestAdvisorWithinTwoOfHandPicked(t *testing.T) {
	sys, prod := newAdvisorSystem(t)

	// The expert grid the advisor competes against — the paper's tuned
	// configurations plus this repo's later wire-level levers.
	handPicked := []pdmtune.TuneConfig{
		{Strategy: pdmtune.LateEval},
		{Strategy: pdmtune.EarlyEval, Batching: true},
		{Strategy: pdmtune.Recursive},
		{Strategy: pdmtune.Recursive, Batching: true, Prepared: true},
		{Strategy: pdmtune.Recursive, Batching: true, Prepared: true, Columnar: true, Compress: true},
		{Strategy: pdmtune.Recursive, Batching: true, CacheEntries: 256},
		{Strategy: pdmtune.EarlyEval, Batching: true, Prepared: true, CacheEntries: 256},
	}

	shapes := []struct {
		name  string
		drive shapeDriver
	}{
		{"cold-scan", coldScan},
		{"warm-repeat", warmRepeat},
		{"write-storm", writeStorm},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			// Observe the shape under the untuned baseline.
			obs, err := sys.Open(pdmtune.WithStrategy(pdmtune.LateEval))
			if err != nil {
				t.Fatal(err)
			}
			shape.drive(t, obs, prod)
			adv := pdmtune.Advisor{Product: prod.Config}
			recs := adv.Recommend(obs, obs.Metrics())
			obs.Close()
			if len(recs) == 0 {
				t.Fatal("advisor returned no recommendations")
			}
			pick := recs[0].Config

			pickSec := simulateConfig(t, sys, prod, pick, shape.drive)
			best := -1.0
			for _, cfg := range handPicked {
				sec := simulateConfig(t, sys, prod, cfg, shape.drive)
				if best < 0 || sec < best {
					best = sec
				}
			}
			t.Logf("pick %s: %.3fs simulated (best hand-picked %.3fs)", pick, pickSec, best)
			if pickSec > 2*best {
				t.Errorf("advisor pick %s costs %.3fs simulated, more than 2x the best hand-picked %.3fs",
					pick, pickSec, best)
			}
		})
	}
}

// TestSessionChangeSetApplyRollback: applying a planned change set to a
// live session makes the session run the target configuration, and
// rolling it back restores the prior configuration exactly —
// fingerprint-verified, including the wire renegotiation both ways.
func TestSessionChangeSetApplyRollback(t *testing.T) {
	sys, prod := newAdvisorSystem(t)
	ctx := context.Background()

	sess, err := sys.Open(pdmtune.WithStrategy(pdmtune.LateEval))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	coldScan(t, sess, prod)

	before := sess.TuneConfig()
	cs := pdmtune.Advisor{Product: prod.Config}.Plan(sess, sess.Metrics())
	if cs == nil {
		t.Fatal("no plan for an untuned cold scan")
	}
	if cs.Fingerprint != before.Fingerprint() {
		t.Fatalf("change set planned against %s, session runs %s", cs.Fingerprint, before.Fingerprint())
	}
	if err := cs.Apply(ctx, sess); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if got := sess.TuneConfig().Fingerprint(); got != cs.Target.Fingerprint() {
		t.Fatalf("after apply the session runs %s, want target %s", got, cs.Target.Fingerprint())
	}
	// The reconfigured session still answers correctly.
	res, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatalf("MLE under the applied target: %v", err)
	}
	if res.Visible != prod.VisibleNodes() {
		t.Fatalf("applied target sees %d nodes, want %d", res.Visible, prod.VisibleNodes())
	}
	if err := cs.Rollback(ctx, sess); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if got := sess.TuneConfig().Fingerprint(); got != before.Fingerprint() {
		t.Fatalf("after rollback the session runs %s, want the prior %s", got, before.Fingerprint())
	}
	if res, err = sess.MultiLevelExpand(ctx, prod.RootID); err != nil || res.Visible != prod.VisibleNodes() {
		t.Fatalf("MLE after rollback: %v (visible %d)", err, res.Visible)
	}
}

// TestAutoTuneClosedLoop: a WithAutoTune session re-tunes itself from
// its own metrics — after enough actions the untuned baseline is gone
// and the last applied change set is reported and revertible.
func TestAutoTuneClosedLoop(t *testing.T) {
	sys, prod := newAdvisorSystem(t)
	ctx := context.Background()

	sess, err := sys.Open(pdmtune.WithStrategy(pdmtune.LateEval),
		pdmtune.WithAutoTune(3, pdmtune.Advisor{Product: prod.Config}))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	before := sess.TuneConfig()

	coldScan(t, sess, prod)
	cs := sess.LastAutoTune()
	if cs == nil {
		t.Fatal("auto-tune never fired")
	}
	after := sess.TuneConfig()
	if after.Fingerprint() == before.Fingerprint() {
		t.Fatalf("auto-tune fired but the session still runs the baseline %s", before)
	}
	if after.Fingerprint() != cs.Target.Fingerprint() {
		t.Fatalf("session runs %s, last auto-tune targeted %s", after, cs.Target)
	}
	// The tuned session keeps answering correctly.
	res, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visible != prod.VisibleNodes() {
		t.Fatalf("auto-tuned session sees %d nodes, want %d", res.Visible, prod.VisibleNodes())
	}
}

// TestChangeSetRollbackAtPrimaryWithReplicaKnob: a change set carrying a
// replica-only knob applies at the primary and rolls back again — the
// session records what it cannot act on, so TuneConfig echoes the
// applied target instead of drifting from it.
func TestChangeSetRollbackAtPrimaryWithReplicaKnob(t *testing.T) {
	sys, _ := newAdvisorSystem(t)
	ctx := context.Background()
	sess, err := sys.Open(pdmtune.WithStrategy(pdmtune.LateEval))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	cur := sess.TuneConfig()
	target := cur
	target.Batching, target.StalenessSec = true, 5
	cs := advisor.NewChangeSet(cur, target, 0, 0)
	if err := cs.Apply(ctx, sess); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := cs.Rollback(ctx, sess); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if got := sess.TuneConfig(); got != cur {
		t.Fatalf("after rollback the session runs %s, want %s", got, cur)
	}
}

// TestApplyConfigRefusals: the change ApplyConfig refuses — a new read
// location, either way — fails before anything moves: the
// configuration, the negotiated encodings and the meter stay as they
// were. Changed wire encodings cost one renegotiation round trip each
// way.
func TestApplyConfigRefusals(t *testing.T) {
	cl, err := pdmtune.NewCluster(nil, pdmtune.SiteConfig{Name: "munich"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.LoadProduct(advisorProduct); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	site, err := cl.OpenAt(ctx, "munich")
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	private, err := cl.Primary().Open(pdmtune.WithCache(64), pdmtune.WithColumnarResults(true))
	if err != nil {
		t.Fatal(err)
	}
	defer private.Close()

	refusals := []struct {
		name   string
		sess   *pdmtune.Session
		change func(*pdmtune.TuneConfig)
	}{
		{"site session leaves its site", site, func(k *pdmtune.TuneConfig) { k.Replica = false }},
		{"primary session moves to a site", private, func(k *pdmtune.TuneConfig) { k.Replica = true }},
	}
	for _, r := range refusals {
		before, caps, rts := r.sess.TuneConfig(), r.sess.WireCaps(), r.sess.Metrics().RoundTrips
		k := before
		r.change(&k)
		// Flip the encodings too: a refusal must come before the
		// renegotiation round trip.
		k.Columnar, k.Compress = !k.Columnar, !k.Compress
		if err := r.sess.ApplyConfig(ctx, k); err == nil {
			t.Errorf("%s: ApplyConfig(%s) accepted", r.name, k)
			continue
		}
		if got := r.sess.TuneConfig(); got != before {
			t.Errorf("%s: refused change moved TuneConfig to %s, want %s", r.name, got, before)
		}
		if got := r.sess.WireCaps(); got != caps {
			t.Errorf("%s: refused change moved WireCaps to %+v, want %+v", r.name, got, caps)
		}
		if got := r.sess.Metrics().RoundTrips; got != rts {
			t.Errorf("%s: refused change cost %d round trips", r.name, got-rts)
		}
	}

	for _, on := range []bool{true, false} {
		k := private.TuneConfig()
		k.Columnar, k.Compress = on, on
		rts := private.Metrics().RoundTrips
		if err := private.ApplyConfig(ctx, k); err != nil {
			t.Fatalf("encodings %v: %v", on, err)
		}
		if got := private.Metrics().RoundTrips - rts; got != 1 {
			t.Errorf("encodings %v: %d round trips, want 1", on, got)
		}
		if caps := private.WireCaps(); caps.ColumnarResults != on || caps.Compression != on {
			t.Errorf("encodings %v: WireCaps %+v", on, caps)
		}
		if got := private.TuneConfig(); got != k {
			t.Errorf("encodings %v: TuneConfig %s, want %s", on, got, k)
		}
	}
}

// TestPredictedPullMatchesSiteMeter: the advisor prices a partial
// site's replication pull as the site meter charged it. The observed
// SyncBytes is the payload of one pull, already filtered by the
// subscription, so the prediction at bound 0 (one pull per action)
// equals the meter's seconds per pull.
func TestPredictedPullMatchesSiteMeter(t *testing.T) {
	ctx := context.Background()
	cl, err := pdmtune.NewCluster(nil, pdmtune.SiteConfig{Name: "half"})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 4, Sigma: 0.6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	children := prod.Nodes[prod.RootID].Children
	if err := cl.Subscribe("half", children[0], children[1]); err != nil {
		t.Fatal(err)
	}
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}
	sess, err := cl.OpenAt(ctx, "half")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	obs := sess.Observe()
	if obs.Coverage <= 0 || obs.Coverage >= 1 {
		t.Fatalf("coverage %v, want a partial site", obs.Coverage)
	}
	half, _ := cl.Site("half")
	m := half.Metrics()
	want := m.TotalSec() / float64(m.SyncRoundTrips)
	w := costmodel.Workload{
		Model:    costmodel.Model{Net: obs.Link, SyncBytes: obs.SyncBytes},
		Action:   costmodel.MLE,
		Coverage: obs.Coverage,
	}
	got := costmodel.PredictWorkload(pdmtune.TuneConfig{Replica: true, StalenessSec: 0}, w).SyncSec
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("predicted pull %.6f s at coverage %.3f, the site meter charged %.6f s per pull over %d pulls",
			got, obs.Coverage, want, m.SyncRoundTrips)
	}
}
