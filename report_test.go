package pdmtune_test

import (
	"context"
	"math"
	"testing"

	"pdmtune"
	"pdmtune/internal/minisql/types"
)

// reportTruth is what Report must return for one product, computed in
// Go: the node counts from the generator's ground truth, the weight and
// check-out totals from the product's stored rows, summed row by row.
func reportTruth(t *testing.T, sys *pdmtune.System, prod *pdmtune.Product) pdmtune.ReportResult {
	t.Helper()
	var want pdmtune.ReportResult
	for _, n := range prod.Nodes {
		if n.Type == "assy" {
			want.Assemblies++
		} else {
			want.Components++
		}
	}
	s := sys.DB.NewSession()
	for _, table := range []string{"assy", "comp"} {
		res, err := s.Exec("SELECT weight, checkedout FROM "+table+" WHERE prod = ?", types.NewInt(prod.Config.ProdID))
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			if w, ok := row[0].AsFloat(); ok {
				want.TotalWeight += w
			}
			if types.Truth(row[1]) == types.True {
				want.CheckedOut++
			}
		}
	}
	return want
}

// TestReportMatchesGroundTruth holds Report, one aggregate statement
// answered at the server, to the product it reports on: node counts by
// kind, the checked-out count before and after a check-out, and the
// total weight — within 1e-9 relative, since the server sums each table
// on its own and the order of float additions is not the client's any
// more. A second product beside it must not leak into the counts, and a
// product id without nodes reports zeros.
func TestReportMatchesGroundTruth(t *testing.T) {
	ctx := context.Background()
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(pdmtune.ProductConfig{ProdID: 1, Depth: 4, Branch: 4, Sigma: 0.75, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.LoadProduct(pdmtune.ProductConfig{ProdID: 2, Depth: 3, Branch: 3, Sigma: 0.8, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	sess, err := sys.Open(pdmtune.WithUser(pdmtune.DefaultUser("engineer")))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	check := func(label string) {
		t.Helper()
		got, err := sess.Report(ctx, prod.Config.ProdID)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := reportTruth(t, sys, prod)
		if got.Assemblies != want.Assemblies || got.Components != want.Components || got.CheckedOut != want.CheckedOut {
			t.Errorf("%s: report %d assy / %d comp / %d checked out, ground truth %d / %d / %d", label,
				got.Assemblies, got.Components, got.CheckedOut, want.Assemblies, want.Components, want.CheckedOut)
		}
		if want.TotalWeight <= 0 || math.Abs(got.TotalWeight-want.TotalWeight) > 1e-9*want.TotalWeight {
			t.Errorf("%s: total weight %.17g, ground truth %.17g", label, got.TotalWeight, want.TotalWeight)
		}
		if got.RowsReceived != 2 || got.Metrics.RoundTrips != 1 {
			t.Errorf("%s: %d rows in %d round trips, want the 2 aggregate rows in 1", label, got.RowsReceived, got.Metrics.RoundTrips)
		}
	}
	check("fresh product")
	sub := prod.Nodes[prod.RootID].Children[0]
	co, err := sess.CheckOut(ctx, sub)
	if err != nil || !co.Granted || co.Updated == 0 {
		t.Fatalf("check-out of %d: %+v, %v", sub, co, err)
	}
	check("after a check-out")

	empty, err := sess.Report(ctx, 99)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Assemblies != 0 || empty.Components != 0 || empty.CheckedOut != 0 || empty.TotalWeight != 0 {
		t.Errorf("product without nodes: %+v, want zeros", *empty)
	}
}
