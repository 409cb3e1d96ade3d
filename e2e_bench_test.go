package pdmtune_test

import (
	"context"
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
func BenchmarkLateEvalEndToEndAllocs(b *testing.B) {
	f := getFixture(b, 0) // δ=3, β=9
	sess, err := f.sys.Open(pdmtune.WithLink(pdmtune.LAN()),
		pdmtune.WithUser(pdmtune.DefaultUser("bench")), pdmtune.WithStrategy(pdmtune.LateEval))
	if err != nil {
		b.Fatal(err)
	}
	for _, run := range []struct {
		name   string
		action pdmtune.Action
		target int64
	}{
		{"query", pdmtune.Query, f.prod.Config.ProdID},
		{"mle", pdmtune.MLE, f.prod.RootID},
	} {
		b.Run(run.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sess.Run(context.Background(), run.action, run.target); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
