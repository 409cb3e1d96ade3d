package main

import (
	"context"
	"fmt"
	"io"
	"math"

	"pdmtune"
	"pdmtune/internal/costmodel"
)

// ---------------------------------------------------------------------------
// simulate: every action under every strategy, against the model

// runSimulate measures each action once on the 256 kbit/s profile; the
// response times on the other two paper networks are derived from the
// measured communications and volume, which do not depend on the link.
func runSimulate(e *env) ([]record, error) {
	nets := costmodel.PaperNetworks()
	var recs []record
	for scenIdx, scen := range e.scenarios {
		sys := pdmtune.NewSystem(nil)
		prod, err := loadScenario(sys, scen, int64(scenIdx+1))
		if err != nil {
			return nil, err
		}
		for _, action := range costmodel.Actions {
			for _, strat := range costmodel.Strategies {
				if action != costmodel.MLE && strat == costmodel.Recursive {
					continue
				}
				target := prod.RootID
				if action == costmodel.Query {
					target = prod.Config.ProdID
				}
				res, err := runAction(sys, pdmtune.LinkOf(nets[0]), pdmtune.Action(action), target, pdmtune.WithStrategy(pdmtune.Strategy(strat)))
				if err != nil {
					return nil, err
				}
				extra := kv{
					"action": action.String(), "strategy": strat.String(), "visible": float64(res.Visible),
					"nodes": float64(prod.AllNodes()), "visible_nodes": float64(prod.VisibleNodes()),
					"model_visible_nodes": scen.VisibleNodes(),
				}
				for ni, net := range nets {
					extra[fmt.Sprintf("sim_sec_net%d", ni+1)] = float64(res.Metrics.Communications)*net.LatencySec +
						res.Metrics.VolumeBytes()*8/(net.RateKbps*1024)
					extra[fmt.Sprintf("model_sec_net%d", ni+1)] = costmodel.Model{Net: net, Tree: scen}.Predict(action, strat).TotalSec
				}
				recs = append(recs, record{
					Mode: "simulate", Scenario: scen.Name, Config: action.String() + ", " + strat.String(),
					Metrics:      res.Metrics,
					PredictedSec: costmodel.Model{Net: nets[0], Tree: scen}.Predict(action, strat).TotalSec, Extra: extra,
				})
			}
		}
	}
	return recs, nil
}

func textSimulate(w io.Writer, recs []record) {
	fmt.Fprintln(w, "Wire-level simulation — full PDM system (SQL over the simulated WAN)")
	fmt.Fprintln(w, "Response times derived for each network from measured round trips and volumes;")
	fmt.Fprintln(w, "model values in parentheses. Scenarios with fractional σβ use random visibility,")
	fmt.Fprintln(w, "so simulated node counts vary around the model's expectation.")
	fmt.Fprintln(w)
	for len(recs) > 0 {
		var scen []record
		scen, recs = cut(recs, byScenario)
		fmt.Fprintf(w, "Scenario %s\n", scen[0].Scenario)
		fmt.Fprintf(w, "  generated: %.0f nodes, %.0f visible (model n_v = %.0f)\n",
			scen[0].num("nodes"), scen[0].num("visible_nodes"), scen[0].num("model_visible_nodes"))
		for _, r := range scen {
			line := fmt.Sprintf("  %-7s %-10s rt=%-6d vol=%8.0f KiB  ",
				r.str("action"), r.str("strategy"), r.Metrics.RoundTrips, r.Metrics.VolumeBytes()/1024)
			for n := 1; n <= 3; n++ {
				line += fmt.Sprintf("T%d=%8.2fs (%8.2fs)  ", n,
					r.num(fmt.Sprintf("sim_sec_net%d", n)), r.num(fmt.Sprintf("model_sec_net%d", n)))
			}
			fmt.Fprintln(w, line)
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------------
// levers: one MLE with a tuning lever off (base) and on (tuned)

// lever is one row of the comparison table: which strategies it applies
// to, the knob set of either side (the row's strategy is filled in when
// it runs), and what the tuned side's own counters say about the
// saving. Both sides are applied with Session.ApplyConfig and the tuned
// one is priced by Model.Price — the same value does both.
type lever struct {
	name   string
	about  string
	strats []pdmtune.Strategy
	// Both sides run with level batching (the navigational strategies'
	// wire mode; the one-statement recursive strategy has nothing to
	// batch) unless the lever is batching itself.
	base, tuned costmodel.Knobs
	// warm measures the tuned session's second MLE: the first fills its cache.
	warm   bool
	detail func(base, tuned pdmtune.Metrics) string
}

func responseRatio(base, tuned pdmtune.Metrics) float64 {
	if tuned.ResponseBytes == 0 {
		return 0
	}
	return base.ResponseBytes / tuned.ResponseBytes
}

var levers = []lever{
	{
		name:   "batch",
		about:  "one wire batch per BFS level instead of one round trip per statement",
		strats: []pdmtune.Strategy{pdmtune.LateEval, pdmtune.EarlyEval},
		tuned:  costmodel.Knobs{Batching: true},
		detail: func(_, t pdmtune.Metrics) string { return fmt.Sprintf("saved %d rt", t.SavedRoundTrips) },
	},
	{
		name:   "prepared",
		about:  "the per-node expand prepared once, executed by handle + parameters",
		strats: []pdmtune.Strategy{pdmtune.EarlyEval},
		base:   costmodel.Knobs{Batching: true},
		tuned:  costmodel.Knobs{Batching: true, Prepared: true},
		detail: func(_, t pdmtune.Metrics) string {
			return fmt.Sprintf("saved %.0f KiB SQL, execs=%d", t.SavedRequestBytes/1024, t.PreparedExecs)
		},
	},
	{
		// The model's ratio is the total v1-to-wire shrink (columnar +
		// deflate): exactly the charged response-volume ratio.
		name:   "compress",
		about:  "columnar v2 results + negotiated deflate (model at the measured ratio)",
		strats: []pdmtune.Strategy{pdmtune.EarlyEval, pdmtune.Recursive},
		base:   costmodel.Knobs{Batching: true},
		tuned:  costmodel.Knobs{Batching: true, Columnar: true, Compress: true},
		detail: func(b, t pdmtune.Metrics) string {
			return fmt.Sprintf("%.1fx, %d frames deflated", responseRatio(b, t), t.CompressedFrames)
		},
	},
	{
		name:   "cache",
		about:  "structure cache: a repeated MLE revalidates its tree in one round trip",
		strats: []pdmtune.Strategy{pdmtune.EarlyEval},
		base:   costmodel.Knobs{Batching: true},
		tuned:  costmodel.Knobs{Batching: true, CacheEntries: 1 << 20},
		warm:   true,
		detail: func(_, t pdmtune.Metrics) string {
			return fmt.Sprintf("hits=%d validate_rt=%d saved_rt=%d", t.CacheHits, t.ValidateRoundTrips, t.SavedRoundTrips)
		},
	},
}

// runLevers measures every lever on every scenario. The levers only
// read, so each scenario's product is generated once and shared; the
// records come out grouped by lever.
func runLevers(e *env) ([]record, error) {
	byLever := make([][]record, len(levers))
	for scenIdx, scen := range e.scenarios {
		sys := pdmtune.NewSystem(nil)
		prod, err := loadScenario(sys, scen, int64(scenIdx+1))
		if err != nil {
			return nil, err
		}
		for li, lv := range levers {
			for _, strat := range lv.strats {
				pair, err := lv.measure(sys, prod.RootID, scen, strat)
				if err != nil {
					return nil, fmt.Errorf("%s, %s, %s: %w", lv.name, scen.Name, strat, err)
				}
				byLever[li] = append(byLever[li], pair...)
			}
		}
	}
	var recs []record
	for _, part := range byLever {
		recs = append(recs, part...)
	}
	return recs, nil
}

// measure runs the MLE under the lever's base and tuned configuration,
// checks both see the same tree, and returns a "base" and a "tuned"
// record.
func (lv lever) measure(sys *pdmtune.System, root int64, scen costmodel.Tree, strat pdmtune.Strategy) ([]record, error) {
	ctx := context.Background()
	baseK, tunedK := lv.base, lv.tuned
	baseK.Strategy, tunedK.Strategy = strat, strat
	run := func(side string, k costmodel.Knobs, warm bool) (record, error) {
		sess, err := open(sys, pdmtune.Intercontinental(), "sim", pdmtune.WithStrategy(strat))
		if err != nil {
			return record{}, err
		}
		defer sess.Close()
		if err := sess.ApplyConfig(ctx, k); err != nil {
			return record{}, err
		}
		res, err := sess.MultiLevelExpand(ctx, root)
		if err == nil && warm {
			res, err = sess.MultiLevelExpand(ctx, root)
		}
		if err != nil {
			return record{}, err
		}
		return record{
			Mode: "levers", Scenario: scen.Name, Config: lv.name + " " + side + ", " + strat.String(),
			Metrics: res.Metrics,
			Extra:   kv{"lever": lv.name, "side": side, "strategy": strat.String(), "visible": float64(res.Visible)},
		}, nil
	}
	base, err := run("base", baseK, false)
	if err != nil {
		return nil, err
	}
	tuned, err := run("tuned", tunedK, lv.warm)
	if err != nil {
		return nil, err
	}
	if tuned.num("visible") != base.num("visible") {
		return nil, fmt.Errorf("tuned client sees %.0f nodes, base client %.0f", tuned.num("visible"), base.num("visible"))
	}
	tuned.PredictedSec = costmodel.Model{Net: costmodel.PaperNetworks()[0], Tree: scen, Warm: lv.warm,
		CompressionRatio: responseRatio(base.Metrics, tuned.Metrics)}.Price(tunedK, costmodel.MLE).TotalSec
	return []record{base, tuned}, nil
}

func textLevers(w io.Writer, recs []record) {
	fmt.Fprintln(w, "Tuning levers — one multi-level expand with the lever off -> on (256 kbit/s /")
	fmt.Fprintln(w, "150 ms; both sides see the same tree; model estimate of the tuned side in")
	fmt.Fprintln(w, "parentheses). req/resp are the charged request and response volumes in KiB.")
	fmt.Fprintln(w)
	for len(recs) > 0 {
		var part []record
		part, recs = cut(recs, byExtra("lever"))
		var lv lever
		for _, l := range levers {
			if l.name == part[0].str("lever") {
				lv = l
			}
		}
		fmt.Fprintf(w, "Lever %s — %s\n", lv.name, lv.about)
		for len(part) > 0 {
			var scen []record
			scen, part = cut(part, byScenario)
			fmt.Fprintf(w, "  Scenario %s\n", scen[0].Scenario)
			for i := 0; i+1 < len(scen); i += 2 {
				b, t := scen[i].Metrics, scen[i+1].Metrics
				fmt.Fprintf(w, "    %-10s rt %5d -> %-4d  req %6.0f -> %-6.0f resp %6.0f -> %-6.0f T %8.2fs -> %7.2fs (%7.2fs)  %s\n",
					scen[i].str("strategy"), b.RoundTrips, t.RoundTrips, b.RequestBytes/1024, t.RequestBytes/1024,
					b.ResponseBytes/1024, t.ResponseBytes/1024, b.TotalSec(), t.TotalSec(), scen[i+1].PredictedSec, lv.detail(b, t))
			}
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------------
// checkout: the Section 6 comparison

func runCheckout(*env) ([]record, error) {
	ctx := context.Background()
	sys := pdmtune.NewSystem(nil)
	cfg := pdmtune.ProductConfig{Depth: 4, Branch: 4, Sigma: 0.5, Seed: 3}
	prod, err := sys.LoadProduct(cfg)
	if err != nil {
		return nil, err
	}
	var recs []record
	for i, m := range []struct {
		name     string
		strat    pdmtune.Strategy
		checkOut func(*pdmtune.Session, context.Context, int64) (*pdmtune.CheckOutResult, error)
	}{
		{"navigational (early eval)", pdmtune.EarlyEval, (*pdmtune.Session).CheckOut},
		{"recursive + updates", pdmtune.Recursive, (*pdmtune.Session).CheckOut},
		{"stored procedure", pdmtune.Recursive, (*pdmtune.Session).CheckOutViaProcedure},
	} {
		sess, err := open(sys, pdmtune.Intercontinental(), fmt.Sprintf("user%d", i), pdmtune.WithStrategy(m.strat))
		if err != nil {
			return nil, err
		}
		defer sess.Close()
		res, err := m.checkOut(sess, ctx, prod.RootID)
		if err != nil {
			return nil, err
		}
		if _, err := sess.CheckInViaProcedure(ctx, prod.RootID); err != nil {
			return nil, err
		}
		recs = append(recs, record{
			Mode: "checkout", Scenario: treeName(cfg),
			Config: m.name, Metrics: res.Metrics,
			Extra: kv{"granted": res.Granted, "updated": float64(res.Updated)},
		})
	}
	return recs, nil
}

func textCheckout(w io.Writer, recs []record) {
	fmt.Fprintf(w, "Check-out comparison (Section 6) — %s, 256 kbit/s / 150 ms\n", recs[0].Scenario)
	for _, r := range recs {
		fmt.Fprintf(w, "  %-28s granted=%-5v updated=%-5.0f rt=%-5d T=%8.2fs\n",
			r.Config, r.Extra["granted"], r.num("updated"), r.Metrics.RoundTrips, r.Metrics.TotalSec())
	}
	fmt.Fprintln(w)
}

// ---------------------------------------------------------------------------
// sites: replica reads vs primary reads, optionally partially replicated

// runSites builds one cluster per scenario with e.sites replica sites
// (WAN links rotating over the paper's network profiles), syncs each
// site once, and measures a recursive MLE at every site — cold and
// repeated. Each site yields a "sync" record (the site meter: the
// replication pull on the WAN), a "cold" and a "repeat" record. With
// e.subscribe > 0 each site first subscribes to ceil(subscribe·β) of the
// root's subtrees: the pull ships only the subscription closure, the
// measured MLEs target a subscribed subtree, and an "out-of-sub" record
// measures an MLE on an unsubscribed subtree falling through to the
// primary.
func runSites(e *env) ([]record, error) {
	nets := costmodel.PaperNetworks()
	var recs []record
	for scenIdx, scen := range e.scenarios {
		var cfgs []pdmtune.SiteConfig
		for i := 0; i < e.sites; i++ {
			cfgs = append(cfgs, pdmtune.SiteConfig{
				Name: fmt.Sprintf("site%d", i+1),
				Link: pdmtune.LinkOf(nets[i%len(nets)]),
			})
		}
		cl, err := pdmtune.NewCluster(nil, cfgs...)
		if err != nil {
			return nil, err
		}
		prod, err := loadScenario(cl.Primary(), scen, int64(scenIdx+1))
		if err != nil {
			return nil, err
		}
		children := prod.Nodes[prod.RootID].Children
		target, probe, coverage := prod.RootID, int64(0), 0.0
		if e.subscribe > 0 && len(children) > 1 {
			// At least one subtree stays out of the subscription, for the probe.
			n := min(int(math.Ceil(e.subscribe*float64(len(children)))), len(children)-1)
			coverage = float64(n) / float64(len(children))
			target, probe = children[0], children[len(children)-1]
			for _, cfg := range cfgs {
				if err := cl.Subscribe(cfg.Name, children[:n]...); err != nil {
					return nil, err
				}
			}
		}
		for _, cfg := range cfgs {
			site, err := measureSite(e, cl, cfg, scen, target, probe, coverage)
			if err != nil {
				return nil, err
			}
			recs = append(recs, site...)
		}
	}
	return recs, nil
}

// measureSite syncs one site and reads at it; probe, when non-zero, is
// the root of an unsubscribed subtree.
func measureSite(e *env, cl *pdmtune.Cluster, cfg pdmtune.SiteConfig, scen costmodel.Tree, target, probe int64, coverage float64) ([]record, error) {
	ctx := context.Background()
	stats, err := cl.SyncSite(ctx, cfg.Name)
	if err != nil {
		return nil, err
	}
	opts := []pdmtune.Option{pdmtune.WithUser(pdmtune.DefaultUser("sim")), pdmtune.WithStrategy(pdmtune.Recursive)}
	if e.staleness >= 0 {
		opts = append(opts, pdmtune.WithMaxStaleness(e.staleness))
	}
	sess, err := cl.OpenAt(ctx, cfg.Name, opts...)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	rec := func(step string, m pdmtune.Metrics, extra kv) record {
		extra["site"], extra["link"] = cfg.Name, cfg.Link.Name
		return record{Mode: "sites", Scenario: scen.Name, Config: cfg.Name + " " + step, Metrics: m, Extra: extra}
	}
	cold, err := sess.MultiLevelExpand(ctx, target)
	if err != nil {
		return nil, err
	}
	repeat, err := sess.MultiLevelExpand(ctx, target)
	if err != nil {
		return nil, err
	}
	// Read before the out-of-subscription probe, so it shows the
	// in-subscription reads' WAN cost: zero.
	wanRead := sess.WANMetrics()
	model := costmodel.Model{Net: costmodel.PaperNetworks()[0], Tree: scen}
	coldRec := rec("cold", cold.Metrics, kv{"visible": float64(cold.Visible)})
	coldRec.PredictedSec = model.Price(sess.TuneConfig(), costmodel.MLE).TotalSec // Replica: priced on the LAN, nothing left to pull
	reads := []record{coldRec, rec("repeat", repeat.Metrics, kv{
		"wan_read_bytes": wanRead.VolumeBytes(), "wan_read_round_trips": float64(wanRead.RoundTrips),
	})}
	if probe != 0 {
		res, err := sess.MultiLevelExpand(ctx, probe)
		if err != nil {
			return nil, err
		}
		reads = append(reads, rec("out-of-sub", res.Metrics, kv{
			"fall_through_round_trips": float64(sess.WANMetrics().FallThroughRoundTrips),
		}))
	}
	site, _ := cl.Site(cfg.Name)
	sync := rec("sync", site.Metrics(), kv{
		"rows": float64(stats.Rows), "keys": float64(stats.Keys), "sites": float64(e.sites), "subscribe": e.subscribe, "coverage": coverage,
		"primary_model_sec": model.Predict(costmodel.MLE, costmodel.Recursive).TotalSec,
	})
	return append([]record{sync}, reads...), nil
}

func textSites(w io.Writer, recs []record) {
	fmt.Fprintf(w, "Multi-site topology — %.0f replica sites per scenario, recursive MLE read at\n", recs[0].num("sites"))
	fmt.Fprintln(w, "each site over the LAN after one sync across the site's WAN link. The read")
	fmt.Fprintln(w, "costs zero WAN bytes; the sync pays the row volume once per change, not once")
	fmt.Fprintln(w, "per read. (Model.Price steady-state estimate of the replica session in parentheses.)")
	if f := recs[0].num("subscribe"); f > 0 {
		fmt.Fprintf(w, "Partial replication: each site subscribes to %.0f%% of the root's subtrees;\n", f*100)
		fmt.Fprintln(w, "the sync ships only the closure, and the out-of-subscription MLE falls")
		fmt.Fprintln(w, "through to the primary at WAN cost.")
	}
	fmt.Fprintln(w)
	for len(recs) > 0 {
		var scen []record
		scen, recs = cut(recs, byScenario)
		fmt.Fprintf(w, "Scenario %s\n", scen[0].Scenario)
		fmt.Fprintf(w, "  (primary read across the 256 kbit/s WAN: model %.2fs)\n", scen[0].num("primary_model_sec"))
		for len(scen) > 0 {
			var site []record
			site, scen = cut(scen, byExtra("site"))
			sync, cold, repeat := site[0], site[1], site[2]
			fmt.Fprintf(w, "  %-7s sync %8.0f KiB (%6.0f rows) across %-22s  cold MLE %6.3fs (%6.3fs)  repeat %6.3fs  WAN read bytes: %.0f\n",
				sync.str("site"), sync.Metrics.VolumeBytes()/1024, sync.num("rows"), sync.str("link"),
				cold.Metrics.TotalSec(), cold.PredictedSec, repeat.Metrics.TotalSec(), repeat.num("wan_read_bytes"))
			if len(site) > 3 {
				fmt.Fprintf(w, "          coverage %.2f  shipped %d rows, skipped %d  out-of-sub MLE %6.3fs (%.0f fall-through rt)\n",
					sync.num("coverage"), sync.Metrics.SubscribedRows, sync.Metrics.SkippedRows,
					site[3].Metrics.TotalSec(), site[3].num("fall_through_round_trips"))
			}
		}
	}
	fmt.Fprintln(w)
}

// ---------------------------------------------------------------------------
// whereused, eco, report: the engineering-change workloads vs the model

// ecWorkload is what the three workloads share: the δ=5/β=4 product
// (deterministic visibility, so chain lengths are exact), a session
// across the paper WAN, the deepest visible component and the length of
// its ancestor chain.
type ecWorkload struct {
	sys   *pdmtune.System
	sess  *pdmtune.Session
	prod  *pdmtune.Product
	part  int64
	chain int
	model costmodel.Model
}

func newECWorkload() (*ecWorkload, error) {
	w := &ecWorkload{sys: pdmtune.NewSystem(nil)}
	cfg := pdmtune.ProductConfig{Depth: 5, Branch: 4, Sigma: 0.75, Seed: 11}
	var err error
	if w.prod, err = w.sys.LoadProduct(cfg); err != nil {
		return nil, err
	}
	for id, n := range w.prod.Nodes {
		if n.Type == "comp" && n.Visible && n.Level == cfg.Depth && (w.part == 0 || id < w.part) {
			w.part = id
		}
	}
	if w.part == 0 {
		return nil, fmt.Errorf("no visible leaf component in the generated product")
	}
	w.chain = w.prod.Nodes[w.part].Level // one ancestor per level above the part
	w.model = costmodel.Model{Net: costmodel.PaperNetworks()[0], Tree: costmodel.Tree{
		Name: treeName(cfg), Depth: cfg.Depth, Branch: cfg.Branch, Sigma: cfg.Sigma,
	}, Chain: w.chain}
	w.sess, err = open(w.sys, pdmtune.Intercontinental(), "ec")
	return w, err
}

// record holds the model to within 25% of the simulation and builds the
// workload's one record.
func (w *ecWorkload) record(mode string, measured pdmtune.Metrics, predicted costmodel.Estimate, extra kv) ([]record, error) {
	errPct := (measured.TotalSec() - predicted.TotalSec) / predicted.TotalSec * 100
	if math.Abs(errPct) > 25 {
		return nil, fmt.Errorf("model %.2fs vs simulated %.2fs (%.1f%% off, bar is 25%%)", predicted.TotalSec, measured.TotalSec(), errPct)
	}
	extra["error_pct"] = errPct
	return []record{{
		Mode: mode, Scenario: w.model.Tree.Name, Config: fmt.Sprintf("%v, 256 kbit/s / 150 ms", w.sess.TuneConfig().Strategy),
		Metrics: measured, PredictedSec: predicted.TotalSec, Extra: extra,
	}}, nil
}

// textEC renders an engineering-change record: the workload's blurb,
// then its own numbers (detail) beside round trips, simulated time and
// the model's.
func textEC(detail func(record) string, about ...string) func(io.Writer, []record) {
	return func(w io.Writer, recs []record) {
		for _, line := range about {
			fmt.Fprintln(w, line)
		}
		r := recs[0]
		fmt.Fprintf(w, "(%s, %s; model prediction in parentheses.)\n", r.Scenario, r.Config)
		fmt.Fprintf(w, "  %s  rt=%d  T=%.2fs (%.2fs, %+.1f%%)\n\n",
			detail(r), r.Metrics.RoundTrips, r.Metrics.TotalSec(), r.PredictedSec, r.num("error_pct"))
	}
}

func runWhereUsed(*env) ([]record, error) {
	w, err := newECWorkload()
	if err != nil {
		return nil, err
	}
	defer w.sess.Close()
	res, err := w.sess.WhereUsed(context.Background(), w.part)
	if err != nil {
		return nil, err
	}
	if res.Visible != w.chain {
		return nil, fmt.Errorf("found %d ancestors, ground truth has %d", res.Visible, w.chain)
	}
	return w.record("whereused", res.Metrics, w.model.Price(w.sess.TuneConfig(), costmodel.WhereUsed), kv{"chain": float64(w.chain)})
}

var textWhereUsed = textEC(
	func(r record) string { return fmt.Sprintf("chain=%.0f ancestors", r.num("chain")) },
	"Where-used — inverse traversal from the deepest component: one recursive",
	"statement, the upward closure and its members' records, under the recursive",
	"strategy; the navigational ones walk one query per ancestor level and then",
	"fetch the records.")

func runECO(*env) ([]record, error) {
	ctx := context.Background()
	w, err := newECWorkload()
	if err != nil {
		return nil, err
	}
	defer w.sess.Close()
	res, err := w.sess.ECOPropagate(ctx, w.part, "revised")
	if err != nil {
		return nil, err
	}
	if len(res.Affected) != w.chain || res.Conflicts != 0 || res.Updated != w.chain+1 {
		return nil, fmt.Errorf("touched %d of %d affected assemblies (%d conflicts), expected a clean %d",
			res.Updated, len(res.Affected), res.Conflicts, w.chain+1)
	}
	// The conflict interaction: an ancestor checked out by another user
	// keeps its state, and the ECO reports it instead of updating it.
	holder, err := open(w.sys, pdmtune.Intercontinental(), "holder")
	if err != nil {
		return nil, err
	}
	defer holder.Close()
	if _, err := holder.CheckOutViaProcedure(ctx, res.Affected[0]); err != nil {
		return nil, err
	}
	contested, err := w.sess.ECOPropagate(ctx, w.part, "frozen")
	if err != nil {
		return nil, err
	}
	if contested.Conflicts == 0 {
		return nil, fmt.Errorf("ECO against a checked-out ancestor reported no conflicts")
	}
	return w.record("eco", res.Metrics, w.model.Price(w.sess.TuneConfig(), costmodel.ECO), kv{
		"chain": float64(w.chain), "affected": float64(len(res.Affected)), "updated": float64(res.Updated),
		"contested_conflicts": float64(contested.Conflicts),
	})
}

var textECO = textEC(
	func(r record) string {
		return fmt.Sprintf("chain=%.0f  updated=%.0f  (%.0f conflicts with a checked-out ancestor)",
			r.num("chain"), r.num("updated"), r.num("contested_conflicts"))
	},
	"ECO propagation — touch the deepest component and revalidate its where-used",
	"closure in one call of the server's pdm_eco procedure: check-out-conditional",
	"updates in one write unit; an ancestor checked out by another user keeps its",
	"state and is reported as a conflict.")

func runReport(*env) ([]record, error) {
	w, err := newECWorkload()
	if err != nil {
		return nil, err
	}
	defer w.sess.Close()
	res, err := w.sess.Report(context.Background(), w.prod.Config.ProdID)
	if err != nil {
		return nil, err
	}
	rows := w.prod.AllNodes() + 1 // the root is a node of the product too
	if res.Assemblies+res.Components != rows {
		return nil, fmt.Errorf("counted %d nodes, product has %d", res.Assemblies+res.Components, rows)
	}
	return w.record("report", res.Metrics, w.model.Price(w.sess.TuneConfig(), costmodel.Report), kv{
		"rows": float64(rows), "assemblies": float64(res.Assemblies), "components": float64(res.Components),
		"checked_out": float64(res.CheckedOut), "total_weight": res.TotalWeight,
	})
}

var textReport = textEC(
	func(r record) string {
		return fmt.Sprintf("%.0f nodes (%.0f assy + %.0f comp, %.0f checked out, weight %.1f)",
			r.num("rows"), r.num("assemblies"), r.num("components"), r.num("checked_out"), r.num("total_weight"))
	},
	"Bulk report — per-product aggregates computed at the server by one",
	"statement; two rows cross the WAN.")
