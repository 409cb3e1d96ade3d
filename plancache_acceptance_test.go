package pdmtune_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"pdmtune"
)

// flattenTree serializes a result tree to a canonical byte form: every
// node field in depth-first order. Two trees flatten to the same bytes
// iff the user-visible result is identical.
func flattenTree(tr *pdmtune.Tree) []byte {
	var buf bytes.Buffer
	tr.Walk(func(n *pdmtune.Node) {
		fmt.Fprintf(&buf, "%s|%d|%s|%s|%s|%s|%s|%g|%v|%d|%d|%d|%s|%s|%d\n",
			n.Type, n.ObID, n.Name, n.Dec, n.MakeOrBuy, n.State, n.Material,
			n.Weight, n.CheckedOut, n.Parent, n.EffFrom, n.EffTo,
			n.StrcOpt, n.PathOpt, len(n.Children))
	})
	return buf.Bytes()
}

// TestPlanCacheByteIdenticalD7B5 runs the paper's δ=7, β=5 acceptance
// MLE twice on one session (no structure cache, so every level's SQL
// really executes both times). The client ships every node's expand in
// its parameterized form, so the first run parses a handful of texts —
// not one per visited node — and the second runs entirely on cached
// ASTs; the metrics prove both, and the trees must be byte-identical.
func TestPlanCacheByteIdenticalD7B5(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(pdmtune.ProductConfig{
		Depth: 7, Branch: 5, Sigma: 0.6, Seed: 2001,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sys.Open(
		pdmtune.WithLink(pdmtune.LAN()),
		pdmtune.WithUser(pdmtune.DefaultUser("engineer")),
		pdmtune.WithStrategy(pdmtune.EarlyEval),
		pdmtune.WithBatching(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	cold, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}

	if cold.Visible != prod.VisibleNodes() || warm.Visible != prod.VisibleNodes() {
		t.Fatalf("visible: cold %d, warm %d, ground truth %d",
			cold.Visible, warm.Visible, prod.VisibleNodes())
	}
	if !bytes.Equal(flattenTree(cold.Tree), flattenTree(warm.Tree)) {
		t.Fatal("plan-cached MLE produced a different tree than the parsed run")
	}
	if warm.Metrics.PlanMisses != 0 || warm.Metrics.PlanHits == 0 {
		t.Fatalf("warm MLE: plan hits=%d misses=%d, want all statements served from the cache",
			warm.Metrics.PlanHits, warm.Metrics.PlanMisses)
	}
	// The type lookup and the expand text; headroom for one probe and
	// one more statement kind, none for a per-node text.
	if n := cold.Metrics.PlanMisses; n == 0 || n > 4 {
		t.Fatalf("cold MLE: %d plan misses, want 1..4 (one per statement shape, not per node)", n)
	}
}
