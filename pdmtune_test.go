package pdmtune_test

import (
	"context"
	"testing"

	"pdmtune"
)

// TestFacadeEndToEnd drives the public API exactly like the README
// quickstart: build, load, connect, act — under every strategy.
func TestFacadeEndToEnd(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(pdmtune.ProductConfig{
		Depth: 3, Branch: 3, Sigma: 0.6, Seed: 1, PadBytes: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prod.AllNodes() != 3+9+27 {
		t.Fatalf("AllNodes = %d, want 39", prod.AllNodes())
	}
	link := pdmtune.Intercontinental()
	user := pdmtune.DefaultUser("scott")

	var visible [3]int
	var seconds [3]float64
	for i, strat := range []pdmtune.Strategy{pdmtune.LateEval, pdmtune.EarlyEval, pdmtune.Recursive} {
		sess, err := sys.Open(pdmtune.WithLink(link), pdmtune.WithUser(user), pdmtune.WithStrategy(strat))
		if err != nil {
			t.Fatalf("strategy %v: %v", strat, err)
		}
		res, err := sess.Run(context.Background(), pdmtune.MLE, prod.RootID)
		if err != nil {
			t.Fatalf("strategy %v: %v", strat, err)
		}
		visible[i] = res.Visible
		seconds[i] = res.Metrics.TotalSec()
	}
	if visible[0] != visible[1] || visible[1] != visible[2] {
		t.Fatalf("strategies disagree on visibility: %v", visible)
	}
	if !(seconds[2] < seconds[1] && seconds[1] <= seconds[0]) {
		t.Fatalf("expected recursive < early <= late, got %v", seconds)
	}
}

func TestFacadeQueryAndExpand(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(pdmtune.ProductConfig{
		Depth: 2, Branch: 3, Sigma: 1, Seed: 2, PadBytes: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	early, err := sys.Open(pdmtune.WithLink(pdmtune.LAN()), pdmtune.WithUser(pdmtune.DefaultUser("u")),
		pdmtune.WithStrategy(pdmtune.EarlyEval))
	if err != nil {
		t.Fatal(err)
	}
	q, err := early.Run(context.Background(), pdmtune.Query, prod.Config.ProdID)
	if err != nil {
		t.Fatal(err)
	}
	if q.Visible != prod.AllNodes()+1 { // σ=1: everything incl. root
		t.Fatalf("query visible = %d, want %d", q.Visible, prod.AllNodes()+1)
	}
	late, err := sys.Open(pdmtune.WithLink(pdmtune.LAN()), pdmtune.WithUser(pdmtune.DefaultUser("u")),
		pdmtune.WithStrategy(pdmtune.LateEval))
	if err != nil {
		t.Fatal(err)
	}
	e, err := late.Run(context.Background(), pdmtune.Expand, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	if e.Visible != 3 {
		t.Fatalf("expand visible = %d, want 3", e.Visible)
	}
}

func TestFacadePaperExample(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	if err := sys.LoadPaperExample(); err != nil {
		t.Fatal(err)
	}
	sess, err := sys.Open(pdmtune.WithLink(pdmtune.Intercontinental()),
		pdmtune.WithUser(pdmtune.DefaultUser("scott")), pdmtune.WithStrategy(pdmtune.Recursive))
	if err != nil {
		t.Fatal(err)
	}
	client := sess.Client()
	res, err := client.MultiLevelExpand(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visible != 8 {
		t.Fatalf("paper example MLE visible = %d, want 8", res.Visible)
	}
	if sess.Metrics().RoundTrips != 1 {
		t.Fatalf("recursive MLE round trips = %d, want 1", sess.Metrics().RoundTrips)
	}
	// Check-out via procedure works through the facade too.
	co, err := client.CheckOutViaProcedure(context.Background(), 1)
	if err != nil || !co.Granted {
		t.Fatalf("check-out: %+v, %v", co, err)
	}
	ci, err := client.CheckInViaProcedure(context.Background(), 1)
	if err != nil || ci.Updated != co.Updated {
		t.Fatalf("check-in: %+v, %v", ci, err)
	}
}
