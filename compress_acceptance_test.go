package pdmtune_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"pdmtune"
	"pdmtune/internal/costmodel"
)

// treeFingerprint serializes every attribute of every node in walk
// order — two trees with equal fingerprints are byte-identical as far
// as any PDM layer can observe.
func treeFingerprint(t *testing.T, res *pdmtune.ActionResult) string {
	t.Helper()
	if res.Tree == nil {
		t.Fatal("action returned no tree")
	}
	var sb strings.Builder
	res.Tree.Walk(func(n *pdmtune.Node) {
		fmt.Fprintf(&sb, "%d|%s|%s|%s|%s|%s|%s|%g|%v|%d|%d|%d|%s|%s|%d\n",
			n.ObID, n.Type, n.Name, n.Dec, n.MakeOrBuy, n.State, n.Material,
			n.Weight, n.CheckedOut, n.Parent, n.EffFrom, n.EffTo, n.StrcOpt,
			n.PathOpt, len(n.Children))
	})
	return sb.String()
}

// TestCompressedAcceptanceD7B5 is the acceptance scenario of the
// columnar + compression PR: on the paper's δ=7, β=5, σ=0.6 product, a
// cold MLE through the negotiated columnar v2 encoding plus deflate
// decodes a byte-identical tree to the v1 path while the charged
// response volume drops at least 5x, and the costmodel's compressed
// prediction improves the 256 kbit/s WAN estimate accordingly. A
// session that negotiates nothing sees no compressed frames at all.
func TestCompressedAcceptanceD7B5(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(pdmtune.ProductConfig{
		Depth: 7, Branch: 5, Sigma: 0.6, Seed: 2001,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	open := func(extra ...pdmtune.Option) *pdmtune.Session {
		opts := []pdmtune.Option{
			pdmtune.WithLink(pdmtune.Intercontinental()),
			pdmtune.WithUser(pdmtune.DefaultUser("engineer")),
			pdmtune.WithStrategy(pdmtune.EarlyEval),
			pdmtune.WithBatching(true),
		}
		sess, err := sys.Open(append(opts, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}

	plainSess := open()
	plain, err := plainSess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Metrics.CompressedFrames != 0 || plain.Metrics.ResponseBytesSaved != 0 {
		t.Fatalf("un-negotiated session reports compression: %+v", plain.Metrics)
	}

	zSess := open(pdmtune.WithColumnarResults(true), pdmtune.WithCompression(true))
	if caps := zSess.WireCaps(); !caps.ColumnarResults || !caps.Compression {
		t.Fatalf("negotiated caps not surfaced: %+v", caps)
	}
	if caps := plainSess.WireCaps(); caps != (pdmtune.WireCaps{}) {
		t.Fatalf("un-negotiated session reports caps: %+v", caps)
	}
	z, err := zSess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}

	// Byte-identical decoded tree.
	if fp, fz := treeFingerprint(t, plain), treeFingerprint(t, z); fp != fz {
		t.Fatal("columnar+compressed tree differs from the v1 tree")
	}
	if z.Visible != prod.VisibleNodes() {
		t.Errorf("visible = %d, ground truth %d", z.Visible, prod.VisibleNodes())
	}

	mP, mZ := plain.Metrics, z.Metrics
	if mZ.ResponseBytes*5 > mP.ResponseBytes {
		t.Errorf("charged response volume %.0f B, want >= 5x below v1's %.0f B",
			mZ.ResponseBytes, mP.ResponseBytes)
	}
	if mZ.CompressedFrames == 0 || mZ.ResponseBytesSaved <= 0 {
		t.Errorf("compression accounting: frames=%d saved=%.0f", mZ.CompressedFrames, mZ.ResponseBytesSaved)
	}
	// The hello handshake lands in the session meter at open, not in the
	// action delta — the action itself pays the same round trips either way.
	if mZ.RoundTrips != mP.RoundTrips {
		t.Errorf("round trips: v1=%d v2=%d, want identical", mP.RoundTrips, mZ.RoundTrips)
	}
	if zSess.Metrics().RoundTrips != mZ.RoundTrips+1 {
		t.Errorf("session meter rt=%d, want action rt %d + 1 handshake",
			zSess.Metrics().RoundTrips, mZ.RoundTrips)
	}
	if mZ.TotalSec() >= mP.TotalSec() {
		t.Errorf("compressed simulated time %.2fs, want below v1 %.2fs", mZ.TotalSec(), mP.TotalSec())
	}

	// The costmodel's compressed prediction moves the same direction on
	// the paper's 256 kbit/s WAN: feeding it the measured total v1-to-wire
	// ratio (columnar + deflate — the model's ratio semantics) lands at
	// or below the batched prediction by the same order.
	ratio := mP.ResponseBytes / mZ.ResponseBytes
	model := costmodel.Model{Net: costmodel.PaperNetworks()[0], Tree: costmodel.PaperScenarios()[2]}
	batched := model.Price(plainSess.TuneConfig(), costmodel.MLE)
	model.CompressionRatio = ratio
	compressed := model.Price(zSess.TuneConfig(), costmodel.MLE)
	if compressed.TotalSec >= batched.TotalSec {
		t.Errorf("model: compressed %.2fs not below batched %.2fs", compressed.TotalSec, batched.TotalSec)
	}
	t.Logf("δ=7/β=5 cold MLE: response %.0f KiB -> %.0f KiB (%.1fx, %d compressed frames), T %.2fs -> %.2fs; model %.2fs -> %.2fs (ratio %.1f)",
		mP.ResponseBytes/1024, mZ.ResponseBytes/1024, mP.ResponseBytes/mZ.ResponseBytes,
		mZ.CompressedFrames, mP.TotalSec(), mZ.TotalSec(), batched.TotalSec, compressed.TotalSec, ratio)
}

// TestOpenContextCancelsNegotiation: the negotiation round trip Open
// performs is bounded by OpenAt's context, so opening a compressed
// session over a dead transport cannot hang.
func TestOpenContextCancelsNegotiation(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	if err := sys.LoadPaperExample(); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := sys.Cluster().OpenAt(cancelled, pdmtune.PrimarySite, pdmtune.WithCompression(true))
	if err == nil {
		t.Fatal("Open with a cancelled negotiation context must fail")
	}
	// Without negotiation the context is unused and Open still succeeds.
	if _, err := sys.Cluster().OpenAt(cancelled, pdmtune.PrimarySite); err != nil {
		t.Fatalf("un-negotiated Open must not touch the wire: %v", err)
	}
}

// TestCompressedRecursiveMLE drives the recursive strategy (one big
// result frame) and the cache-refetch path under the negotiated
// encodings: identical trees, one compressed frame for the cold fetch.
func TestCompressedRecursiveMLE(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(pdmtune.ProductConfig{
		Depth: 4, Branch: 4, Sigma: 0.5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	open := func(extra ...pdmtune.Option) *pdmtune.Session {
		opts := []pdmtune.Option{
			pdmtune.WithLink(pdmtune.Intercontinental()),
			pdmtune.WithUser(pdmtune.DefaultUser("engineer")),
			pdmtune.WithStrategy(pdmtune.Recursive),
		}
		sess, err := sys.Open(append(opts, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	plain, err := open().MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	zSess := open(
		pdmtune.WithColumnarResults(true),
		pdmtune.WithCompression(true),
		pdmtune.WithCache(1<<16),
	)
	cold, err := zSess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	if fp, fz := treeFingerprint(t, plain), treeFingerprint(t, cold); fp != fz {
		t.Fatal("recursive compressed tree differs from the v1 tree")
	}
	if cold.Metrics.ResponseBytes >= plain.Metrics.ResponseBytes {
		t.Errorf("compressed recursive response %.0f B, want below %.0f B",
			cold.Metrics.ResponseBytes, plain.Metrics.ResponseBytes)
	}
	// Warm repeat over the cache: the validate exchange and the decoded
	// tree are unaffected by the wire encodings.
	warm, err := zSess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	if fp, fw := treeFingerprint(t, plain), treeFingerprint(t, warm); fp != fw {
		t.Fatal("warm cached tree differs under negotiated encodings")
	}
	if warm.Metrics.ValidateRoundTrips != 1 {
		t.Errorf("warm validate round trips = %d, want 1", warm.Metrics.ValidateRoundTrips)
	}
}
