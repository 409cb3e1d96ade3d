package pdmtune_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"pdmtune"
)

// TestStatementModeMatrix is the metamorphic matrix of the statement
// pipeline on a small tree: every {strategy} × {batching} × {prepared}
// session must return byte-identical trees wherever it reads — at the
// primary, at a full replica, inside a partial replica's subscription
// and, through fall-through, outside it. (Only the root's own record
// differs between the access families: the recursive query fetches it,
// the navigational client has it already and looks up just its type —
// so below the root line all twelve configurations must agree, and
// within a family the root line too.) An ∃structure rule keeps the
// probe statements in play on every navigational lane. The fall-through
// lane ships one text statement per round trip whatever the session's
// mode, so its round-trip count depends on the strategy alone; the
// pinned counts were measured before the fall-through fetcher became a
// second wire fetcher.
func TestStatementModeMatrix(t *testing.T) {
	ctx := context.Background()
	rules := pdmtune.StandardRules()
	rules.MustAdd(pdmtune.Rule{
		User: "*", Action: "access", ObjType: "comp", Kind: pdmtune.KindExistsStructure,
		Cond: "EXISTS (SELECT * FROM specified_by AS s JOIN spec ON s.right = spec.obid WHERE s.left = comp.obid)",
	})
	cl, err := pdmtune.NewCluster(rules, pdmtune.SiteConfig{Name: "full"}, pdmtune.SiteConfig{Name: "partial"})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 4, Branch: 3, Sigma: 0.8, Seed: 11, PadBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	children := prod.Nodes[prod.RootID].Children
	inSub, outSub := children[1], children[2]
	if err := cl.Subscribe("partial", inSub); err != nil {
		t.Fatal(err)
	}
	if err := cl.SyncAll(ctx); err != nil {
		t.Fatal(err)
	}

	// Fall-through round trips of one MLE of outSub, per strategy: the
	// type lookup, one expand per visible node and one probe per
	// candidate component — or the one recursive statement.
	wantFallThrough := map[pdmtune.Strategy]int{
		pdmtune.LateEval:  fallThroughNavigational,
		pdmtune.EarlyEval: fallThroughNavigational,
		pdmtune.Recursive: 1,
	}

	places := []struct {
		name, site string
		root       int64
	}{
		{"primary", "", outSub},
		{"full-replica", "full", outSub},
		{"partial-in", "partial", inSub},
		{"partial-fallthrough", "partial", outSub},
	}
	type family struct {
		root      int64
		recursive bool
	}
	want := map[family][]byte{}     // whole tree, per access family
	wantBelow := map[int64][]byte{} // everything below the root line
	for _, place := range places {
		for _, strategy := range []pdmtune.Strategy{pdmtune.LateEval, pdmtune.EarlyEval, pdmtune.Recursive} {
			for mode := 0; mode < 4; mode++ {
				batching, prepared := mode&1 != 0, mode&2 != 0
				name := fmt.Sprintf("%s/%v/batch=%t/prepared=%t", place.name, strategy, batching, prepared)
				opts := []pdmtune.Option{
					pdmtune.WithUser(pdmtune.DefaultUser("engineer")),
					pdmtune.WithStrategy(strategy),
					pdmtune.WithBatching(batching),
					pdmtune.WithPreparedStatements(prepared),
				}
				var sess *pdmtune.Session
				if place.site == "" {
					sess, err = cl.Primary().Open(opts...)
				} else {
					sess, err = cl.OpenAt(ctx, place.site, opts...)
				}
				if err != nil {
					t.Fatalf("%s: open: %v", name, err)
				}
				res, err := sess.MultiLevelExpand(ctx, place.root)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := flattenTree(res.Tree)
				if res.Visible < 10 {
					t.Fatalf("%s: degenerate tree of %d nodes", name, res.Visible)
				}
				fam := family{place.root, strategy == pdmtune.Recursive}
				if want[fam] == nil {
					want[fam] = got
				} else if !bytes.Equal(got, want[fam]) {
					t.Errorf("%s: tree differs from the first configuration's", name)
				}
				below := got[bytes.IndexByte(got, '\n')+1:]
				if wantBelow[place.root] == nil {
					wantBelow[place.root] = below
				} else if !bytes.Equal(below, wantBelow[place.root]) {
					t.Errorf("%s: tree below the root differs from the first configuration's", name)
				}
				ft := sess.WANMetrics().FallThroughRoundTrips
				switch place.name {
				case "partial-fallthrough":
					if ft != wantFallThrough[strategy] {
						t.Errorf("%s: %d fall-through round trips, want %d", name, ft, wantFallThrough[strategy])
					}
				default:
					if ft != 0 {
						t.Errorf("%s: %d fall-through round trips, want none", name, ft)
					}
				}
				if err := sess.Close(); err != nil {
					t.Errorf("%s: close: %v", name, err)
				}
			}
		}
	}
	if bytes.Equal(wantBelow[inSub], wantBelow[outSub]) {
		t.Fatal("degenerate trees: both roots flatten alike")
	}

	// Report is one statement over the whole product: site-local at the
	// primary and the full replica, one fall-through round trip at the
	// partial replica, which cannot count what it does not hold. Every
	// configuration must report the same aggregate.
	var wantReport *pdmtune.ReportResult
	for _, place := range []struct{ name, site string }{{"primary", ""}, {"full-replica", "full"}, {"partial-fallthrough", "partial"}} {
		for _, strategy := range []pdmtune.Strategy{pdmtune.LateEval, pdmtune.EarlyEval, pdmtune.Recursive} {
			for mode := 0; mode < 4; mode++ {
				batching, prepared := mode&1 != 0, mode&2 != 0
				name := fmt.Sprintf("report/%s/%v/batch=%t/prepared=%t", place.name, strategy, batching, prepared)
				opts := []pdmtune.Option{
					pdmtune.WithUser(pdmtune.DefaultUser("engineer")),
					pdmtune.WithStrategy(strategy),
					pdmtune.WithBatching(batching),
					pdmtune.WithPreparedStatements(prepared),
				}
				var sess *pdmtune.Session
				if place.site == "" {
					sess, err = cl.Primary().Open(opts...)
				} else {
					sess, err = cl.OpenAt(ctx, place.site, opts...)
				}
				if err != nil {
					t.Fatalf("%s: open: %v", name, err)
				}
				res, err := sess.Report(ctx, prod.Config.ProdID)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Assemblies+res.Components != prod.AllNodes()+1 {
					t.Errorf("%s: report counts %d nodes, the product has %d", name, res.Assemblies+res.Components, prod.AllNodes()+1)
				}
				got := *res
				got.Metrics = pdmtune.Metrics{}
				if wantReport == nil {
					wantReport = &got
				} else if got != *wantReport {
					t.Errorf("%s: report %+v, the first configuration's %+v", name, got, *wantReport)
				}
				wantFT := 0
				if place.site == "partial" {
					wantFT = 1
				}
				if ft := sess.WANMetrics().FallThroughRoundTrips; res.Metrics.RoundTrips != 1 || ft != wantFT {
					t.Errorf("%s: %d round trips, %d fall-through; want 1, %d", name, res.Metrics.RoundTrips, ft, wantFT)
				}
				if err := sess.Close(); err != nil {
					t.Errorf("%s: close: %v", name, err)
				}
			}
		}
	}
}

// fallThroughNavigational is the parent commit's fall-through count for
// a navigational MLE of the matrix's out-of-subscription root.
const fallThroughNavigational = 37
