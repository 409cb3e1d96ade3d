package pdmtune_test

import (
	"context"
	"math"
	"testing"

	"pdmtune"
	"pdmtune/internal/costmodel"
)

// fidelityBound is how far the simulated time of one action may sit
// from Model.Price's estimate for the same configuration.
const fidelityBound = 0.25

// TestModelFidelity is the one model-vs-simulation table: each row opens
// a session with its options, checks the session reports exactly the
// row's knob set, runs the row's action across the simulated network
// and holds the simulated seconds to within fidelityBound of what
// Model.Price says for those knobs — the evaluator prices the
// configuration that runs, not a restatement of it.
func TestModelFidelity(t *testing.T) {
	ctx := context.Background()
	wan := costmodel.PaperNetworks()[0]

	// The engineering-change rows share one small product with
	// deterministic visibility, so the ancestor chain is exact.
	ecCfg := pdmtune.ProductConfig{Depth: 4, Branch: 3, Sigma: 1, Seed: 13}
	ecSys := pdmtune.NewSystem(nil)
	ecProd, err := ecSys.LoadProduct(ecCfg)
	if err != nil {
		t.Fatal(err)
	}
	part := int64(0)
	for id, n := range ecProd.Nodes {
		if n.Type == "comp" && n.Visible && n.Level == ecCfg.Depth && (part == 0 || id < part) {
			part = id
		}
	}
	if part == 0 {
		t.Fatal("no visible leaf component in the generated product")
	}
	chain, rows := ecProd.Nodes[part].Level, ecProd.AllNodes()+1
	ecModel := costmodel.Model{Net: wan, Tree: costmodel.Tree{Depth: ecCfg.Depth, Branch: ecCfg.Branch, Sigma: ecCfg.Sigma},
		Chain: chain}
	ecOpen := func(t *testing.T) *pdmtune.Session {
		sess, err := ecSys.Open(pdmtune.WithLink(wan), pdmtune.WithUser(pdmtune.DefaultUser("ec")))
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	primary := pdmtune.TuneConfig{Strategy: pdmtune.Recursive, StalenessSec: -1}

	// The replica row reads the paper's worldwide product at a synced
	// site over the LAN: the WAN drops out of the estimate.
	replicaOpen := func(t *testing.T) (*pdmtune.Session, int64) {
		cl, err := pdmtune.NewCluster(nil, pdmtune.SiteConfig{Name: "munich", Link: pdmtune.Intercontinental()})
		if err != nil {
			t.Fatal(err)
		}
		prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 7, Branch: 5, Sigma: 0.6, Seed: 2001})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.SyncSite(ctx, "munich"); err != nil {
			t.Fatal(err)
		}
		sess, err := cl.OpenAt(ctx, "munich", pdmtune.WithUser(pdmtune.DefaultUser("engineer")),
			pdmtune.WithStrategy(pdmtune.Recursive))
		if err != nil {
			t.Fatal(err)
		}
		return sess, prod.RootID
	}

	for _, row := range []struct {
		name   string
		knobs  pdmtune.TuneConfig
		action pdmtune.Action
		model  costmodel.Model
		open   func(*testing.T) (*pdmtune.Session, int64)
		// run performs the action and returns its simulated seconds,
		// failing the row when the result itself is wrong.
		run func(*testing.T, *pdmtune.Session, int64) float64
	}{
		{"where-used", primary, pdmtune.WhereUsed, ecModel,
			func(t *testing.T) (*pdmtune.Session, int64) { return ecOpen(t), part },
			func(t *testing.T, s *pdmtune.Session, target int64) float64 {
				res, err := s.WhereUsed(ctx, target)
				if err != nil {
					t.Fatal(err)
				}
				if res.Visible != chain {
					t.Errorf("where-used found %d ancestors, want %d", res.Visible, chain)
				}
				return res.Metrics.TotalSec()
			}},
		{"eco", primary, pdmtune.ECO, ecModel,
			func(t *testing.T) (*pdmtune.Session, int64) { return ecOpen(t), part },
			func(t *testing.T, s *pdmtune.Session, target int64) float64 {
				res, err := s.ECOPropagate(ctx, target, "revised")
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Affected) != chain || res.Conflicts != 0 || res.Updated != chain+1 {
					t.Errorf("ECO updated %d with %d conflicts over %d affected assemblies, want a clean %d over %d",
						res.Updated, res.Conflicts, len(res.Affected), chain+1, chain)
				}
				return res.Metrics.TotalSec()
			}},
		{"report", primary, pdmtune.Report, ecModel,
			func(t *testing.T) (*pdmtune.Session, int64) { return ecOpen(t), ecProd.Config.ProdID },
			func(t *testing.T, s *pdmtune.Session, target int64) float64 {
				res, err := s.Report(ctx, target)
				if err != nil {
					t.Fatal(err)
				}
				if res.Assemblies+res.Components != rows {
					t.Errorf("report counted %d nodes, want %d", res.Assemblies+res.Components, rows)
				}
				return res.Metrics.TotalSec()
			}},
		{"replica MLE", pdmtune.TuneConfig{Strategy: pdmtune.Recursive, Replica: true, StalenessSec: -1}, pdmtune.MLE,
			costmodel.Model{Net: wan, Tree: costmodel.PaperScenarios()[2]}, replicaOpen,
			func(t *testing.T, s *pdmtune.Session, target int64) float64 {
				res, err := s.MultiLevelExpand(ctx, target)
				if err != nil {
					t.Fatal(err)
				}
				return res.Metrics.TotalSec()
			}},
	} {
		t.Run(row.name, func(t *testing.T) {
			sess, target := row.open(t)
			defer sess.Close()
			if got := sess.TuneConfig(); got != row.knobs {
				t.Fatalf("session runs %s, the row prices %s", got, row.knobs)
			}
			predicted := row.model.Price(row.knobs, row.action).TotalSec
			if predicted <= 0 {
				t.Fatalf("non-positive prediction %g", predicted)
			}
			measured := row.run(t, sess, target)
			if diff := (measured - predicted) / predicted; math.Abs(diff) > fidelityBound {
				t.Errorf("measured %.4fs vs predicted %.4fs (%.0f%% off, bound %.0f%%)",
					measured, predicted, diff*100, fidelityBound*100)
			}
		})
	}
}
