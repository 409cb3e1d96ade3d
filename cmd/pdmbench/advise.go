package main

import (
	"context"
	"fmt"
	"io"

	"pdmtune"
)

// adviseProduct matches the advisor acceptance tests: deep enough that
// the knobs matter, small enough to simulate per shape.
var adviseProduct = pdmtune.ProductConfig{Depth: 4, Branch: 3, Sigma: 1, Seed: 7, PadBytes: 64}

// adviseDriver drives one workload shape against a session. Drivers
// pair every check-out with a check-in, so consecutive runs see an
// identical database.
type adviseDriver func(sess *pdmtune.Session, prod *pdmtune.Product) error

func driveColdScan(sess *pdmtune.Session, prod *pdmtune.Product) error {
	ctx := context.Background()
	for _, id := range prod.Nodes[prod.RootID].Children {
		if _, err := sess.MultiLevelExpand(ctx, id); err != nil {
			return err
		}
	}
	_, err := sess.MultiLevelExpand(ctx, prod.RootID)
	return err
}

func driveWarmRepeat(sess *pdmtune.Session, prod *pdmtune.Product) error {
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := sess.MultiLevelExpand(ctx, prod.RootID); err != nil {
			return err
		}
	}
	return nil
}

func driveWriteStorm(sess *pdmtune.Session, prod *pdmtune.Product) error {
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		for _, id := range prod.Nodes[prod.RootID].Children {
			if _, err := sess.CheckOut(ctx, id); err != nil {
				return err
			}
			if _, err := sess.CheckIn(ctx, id); err != nil {
				return err
			}
		}
	}
	return nil
}

// adviseOne observes one shape, asks the advisor, and measures the pick.
func adviseOne(sys *pdmtune.System, prod *pdmtune.Product, shape string, drive adviseDriver) (record, error) {
	// Observation run under the untuned baseline.
	obs, err := sys.Open(pdmtune.WithStrategy(pdmtune.LateEval))
	if err != nil {
		return record{}, err
	}
	defer obs.Close()
	if err := drive(obs, prod); err != nil {
		return record{}, err
	}
	window := obs.Metrics()
	adv := pdmtune.Advisor{Product: prod.Config, Users: 1}
	profile := pdmtune.Classify(adv.Observe(obs, window))
	recs := adv.Recommend(obs, window)
	if len(recs) == 0 {
		return record{}, fmt.Errorf("advisor returned no recommendations for shape %s", shape)
	}
	best := recs[0]

	// Measurement run: a fresh session reconfigured to the pick, meters
	// reset so only the workload is charged.
	sess, err := sys.Open(pdmtune.WithStrategy(pdmtune.LateEval))
	if err != nil {
		return record{}, err
	}
	defer sess.Close()
	if err := sess.ApplyConfig(context.Background(), best.Config); err != nil {
		return record{}, err
	}
	sess.ResetMetrics()
	if err := drive(sess, prod); err != nil {
		return record{}, err
	}
	picked := sess.Metrics()
	speedup := 0.0
	if picked.TotalSec() > 0 {
		speedup = window.TotalSec() / picked.TotalSec()
	}
	return record{
		Mode:     "advise",
		Scenario: treeName(adviseProduct),
		Config:   best.Config.String(), Metrics: picked, PredictedSec: best.PredictedSec,
		Extra: kv{
			"shape": shape, "classified": profile.Shape.String(),
			"write_frac": profile.WriteFrac, "repeat_frac": profile.RepeatFrac,
			"current_sec": best.CurrentSec, "predicted_gain_pct": best.DeltaPct,
			"baseline_sim_sec": window.TotalSec(), "speedup_x": speedup,
		},
	}, nil
}

// runAdvise drives three canonical workload shapes under the untuned
// baseline (plain late evaluation), lets the advisor classify each
// observed window and pick a configuration, and re-runs the shape under
// the pick. Each record carries the pick as its config and the pick's
// measured traffic as its metrics.
func runAdvise(*env) ([]record, error) {
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(adviseProduct)
	if err != nil {
		return nil, err
	}
	var recs []record
	for _, s := range []struct {
		name  string
		drive adviseDriver
	}{
		{"cold-scan", driveColdScan},
		{"warm-repeat", driveWarmRepeat},
		{"write-storm", driveWriteStorm},
	} {
		r, err := adviseOne(sys, prod, s.name, s.drive)
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	return recs, nil
}

func textAdvise(w io.Writer, recs []record) {
	fmt.Fprintln(w, "Auto-tuning advisor — three workload shapes observed under the untuned")
	fmt.Fprintln(w, "baseline (plain late evaluation), classified, and re-run under the advisor's")
	fmt.Fprintf(w, "pick (%s, 256 kbit/s / 150 ms).\n", recs[0].Scenario)
	fmt.Fprintln(w)
	for _, r := range recs {
		fmt.Fprintf(w, "  %-12s classified %-12s (writes %4.0f%%, repeats %4.0f%%)\n",
			r.str("shape"), r.str("classified"), r.num("write_frac")*100, r.num("repeat_frac")*100)
		fmt.Fprintf(w, "    pick: %s\n", r.Config)
		fmt.Fprintf(w, "    simulated: %8.2fs -> %7.2fs (%.1fx; model predicted %.1f%% gain)\n",
			r.num("baseline_sim_sec"), r.Metrics.TotalSec(), r.num("speedup_x"), r.num("predicted_gain_pct"))
	}
	fmt.Fprintln(w)
}
