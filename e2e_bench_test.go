package pdmtune_test

import (
	"context"
	"runtime"
	"testing"

	"pdmtune"
)

// BenchmarkMLEEndToEndAllocs measures the allocation footprint of one
// full in-process multi-level expand (client → wire → engine → back):
// the end-to-end view of the zero-allocation hot path. The PR-8 seed
// measured 169,814 allocs/op on this workload; the byte-scan lexer,
// plan cache, pooled wire buffers and cached expand template together
// hold it under a third of that.
func BenchmarkMLEEndToEndAllocs(b *testing.B) {
	f := getFixture(b, 0) // δ=3, β=9
	sess, err := f.sys.Open(pdmtune.WithLink(pdmtune.LAN()),
		pdmtune.WithUser(pdmtune.DefaultUser("bench")), pdmtune.WithStrategy(pdmtune.EarlyEval),
		pdmtune.WithBatching(true))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.MultiLevelExpand(context.Background(), f.prod.RootID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLateEvalEndToEndAllocs measures one full Query and one full
// unbatched multi-level expand under late evaluation, the paper's
// untuned client: every received row is filtered at the client against
// its compiled rule predicates, which costs no allocation per row.
// wan/d7_b5/query runs Query on δ=7/β=5 under the wan-recursive
// benchmark workload's session options (v2 results, deflate, prepared
// statements, batching), where the client's decode is the client's
// whole cost. Each case reports its allocations per received row.
func BenchmarkLateEvalEndToEndAllocs(b *testing.B) {
	open := func(f *fixture, opts ...pdmtune.Option) *pdmtune.Session {
		sess, err := f.sys.Open(append([]pdmtune.Option{pdmtune.WithLink(pdmtune.LAN()),
			pdmtune.WithUser(pdmtune.DefaultUser("bench"))}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		return sess
	}
	run := func(sess *pdmtune.Session, action pdmtune.Action, target int64) func(*testing.B) {
		return func(b *testing.B) {
			rows := 0
			var before, after runtime.MemStats
			b.ReportAllocs()
			b.ResetTimer()
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				res, err := sess.Run(context.Background(), action, target)
				if err != nil {
					b.Fatal(err)
				}
				rows = res.RowsReceived
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(max(rows, 1)), "allocs/row")
		}
	}
	f := getFixture(b, 0) // δ=3, β=9
	late := open(f, pdmtune.WithStrategy(pdmtune.LateEval))
	b.Run("query", run(late, pdmtune.Query, f.prod.Config.ProdID))
	b.Run("mle", run(late, pdmtune.MLE, f.prod.RootID))
	if testing.Short() {
		return
	}
	f = getFixture(b, 2) // δ=7, β=5
	wan := open(f, pdmtune.WithStrategy(pdmtune.Recursive), pdmtune.WithColumnarResults(true),
		pdmtune.WithCompression(true), pdmtune.WithPreparedStatements(true), pdmtune.WithBatching(true))
	b.Run("wan/d7_b5/query", run(wan, pdmtune.Query, f.prod.Config.ProdID))
}
