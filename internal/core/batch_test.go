package core_test

import (
	"context"
	"testing"

	"pdmtune/internal/core"
	"pdmtune/internal/costmodel"
	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
	"pdmtune/internal/workload"
)

// batchedClient connects a metered client with statement batching on.
func batchedClient(srv *wire.Server, rules *core.RuleTable, user core.UserContext, s costmodel.Strategy) (*core.Client, *netsim.Meter) {
	c, m := pdmClient(srv, rules, user, s)
	tune(c, func(k *costmodel.Knobs) { k.Batching = true })
	return c, m
}

// TestBatchedMLEMatchesUnbatched: under every strategy the batched
// client must see exactly the nodes the unbatched client sees, while
// paying strictly fewer round trips on the navigational strategies.
func TestBatchedMLEMatchesUnbatched(t *testing.T) {
	srv, prod := generatedServer(t, workload.Config{
		Depth: 3, Branch: 4, Sigma: 0.5, Seed: 7, PadBytes: 16,
	})
	for _, strat := range costmodel.Strategies {
		plain, pm := pdmClient(srv, core.StandardRules(), core.DefaultUser("scott"), strat)
		resP, err := plain.MultiLevelExpand(context.Background(), prod.RootID)
		if err != nil {
			t.Fatalf("%v: plain MLE: %v", strat, err)
		}
		batched, bm := batchedClient(srv, core.StandardRules(), core.DefaultUser("scott"), strat)
		resB, err := batched.MultiLevelExpand(context.Background(), prod.RootID)
		if err != nil {
			t.Fatalf("%v: batched MLE: %v", strat, err)
		}
		idsP, idsB := visibleIDs(resP.Tree), visibleIDs(resB.Tree)
		if len(idsP) != len(idsB) {
			t.Fatalf("%v: batched sees %d nodes, unbatched %d", strat, len(idsB), len(idsP))
		}
		for i := range idsP {
			if idsP[i] != idsB[i] {
				t.Fatalf("%v: node %d differs: %d != %d", strat, i, idsB[i], idsP[i])
			}
		}
		if resB.RowsReceived != resP.RowsReceived {
			t.Errorf("%v: batched received %d rows, unbatched %d", strat, resB.RowsReceived, resP.RowsReceived)
		}
		if strat == costmodel.Recursive {
			// Already one round trip; batching must not change it.
			if bm.Metrics.RoundTrips != pm.Metrics.RoundTrips {
				t.Errorf("recursive: batched %d round trips, unbatched %d",
					bm.Metrics.RoundTrips, pm.Metrics.RoundTrips)
			}
			continue
		}
		if bm.Metrics.RoundTrips >= pm.Metrics.RoundTrips {
			t.Errorf("%v: batching saved nothing (%d >= %d round trips)",
				strat, bm.Metrics.RoundTrips, pm.Metrics.RoundTrips)
		}
		// Every statement still shipped, just in fewer frames.
		if bm.Metrics.Statements != pm.Metrics.Statements {
			t.Errorf("%v: batched shipped %d statements, unbatched %d",
				strat, bm.Metrics.Statements, pm.Metrics.Statements)
		}
	}
}

// TestBatchedMLERoundTripsPerLevel: a δ-deep visible tree takes exactly
// δ+2 batch round trips — the root's type lookup plus one batch per BFS
// level, leaves included — when no probe rules apply.
func TestBatchedMLERoundTripsPerLevel(t *testing.T) {
	cfg := workload.Config{Depth: 3, Branch: 4, Sigma: 0.5, Seed: 7, PadBytes: 16}
	srv, prod := generatedServer(t, cfg)
	c, meter := batchedClient(srv, core.StandardRules(), core.DefaultUser("scott"), costmodel.EarlyEval)
	if _, err := c.MultiLevelExpand(context.Background(), prod.RootID); err != nil {
		t.Fatal(err)
	}
	want := cfg.Depth + 2
	if meter.Metrics.RoundTrips != want {
		t.Errorf("batched MLE took %d round trips, want %d (type lookup + one per level)",
			meter.Metrics.RoundTrips, want)
	}
	if meter.Metrics.Statements != 2+prod.VisibleNodes() {
		t.Errorf("batched MLE shipped %d statements, want %d",
			meter.Metrics.Statements, 2+prod.VisibleNodes())
	}
}

// TestBatchedExistsStructureRule: the batched client ships the
// unbatched client's ∃structure probes and reaches its verdicts: the
// same visible nodes, rows received and statements shipped. With two
// rules, a component the first rule permits is not probed again, and
// the batched client ships each rule's round of probes as one batch.
func TestBatchedExistsStructureRule(t *testing.T) {
	srv := pdmServer(t)
	specRule := core.Rule{
		User: core.Wildcard, Action: core.ActionAccess, ObjType: "comp",
		Kind: core.KindExistsStructure,
		Cond: "EXISTS (SELECT * FROM specified_by AS s JOIN spec ON s.right = spec.obid WHERE s.left = comp.obid)",
	}
	oneRule := core.StandardRules()
	oneRule.MustAdd(specRule)
	twoRules := core.StandardRules()
	twoRules.MustAdd(specRule)
	twoRules.MustAdd(core.Rule{
		User: core.Wildcard, Action: core.ActionAccess, ObjType: "comp",
		Kind: core.KindExistsStructure,
		Cond: "EXISTS (SELECT * FROM comp AS c2 WHERE c2.obid = comp.obid)",
	})
	cases := []struct {
		name  string
		rules *core.RuleTable
		want  []int64
		// statements and batchedRoundTrips are checked when set.
		statements, batchedRoundTrips int
	}{
		{"one rule", oneRule, []int64{2, 3, 4, 5, 101, 103}, 0, 0},
		{"two rules", twoRules, []int64{2, 3, 4, 5, 101, 102, 103, 104}, 16, 7},
	}
	for _, tc := range cases {
		for _, strat := range []costmodel.Strategy{costmodel.LateEval, costmodel.EarlyEval} {
			plain, pm := pdmClient(srv, tc.rules, core.DefaultUser("scott"), strat)
			resP, err := plain.MultiLevelExpand(context.Background(), 1)
			if err != nil {
				t.Fatalf("%s, %v: unbatched MLE: %v", tc.name, strat, err)
			}
			c, bm := batchedClient(srv, tc.rules, core.DefaultUser("scott"), strat)
			res, err := c.MultiLevelExpand(context.Background(), 1)
			if err != nil {
				t.Fatalf("%s, %v: batched MLE: %v", tc.name, strat, err)
			}
			for _, got := range [][]int64{visibleIDs(resP.Tree), visibleIDs(res.Tree)} {
				if len(got) != len(tc.want) {
					t.Fatalf("%s, %v: MLE = %v, want %v", tc.name, strat, got, tc.want)
				}
				for i := range tc.want {
					if got[i] != tc.want[i] {
						t.Errorf("%s, %v: node %d = %d, want %d", tc.name, strat, i, got[i], tc.want[i])
					}
				}
			}
			if res.RowsReceived != resP.RowsReceived {
				t.Errorf("%s, %v: batched received %d rows, unbatched %d",
					tc.name, strat, res.RowsReceived, resP.RowsReceived)
			}
			if bm.Metrics.Statements != pm.Metrics.Statements {
				t.Errorf("%s, %v: batched shipped %d statements, unbatched %d",
					tc.name, strat, bm.Metrics.Statements, pm.Metrics.Statements)
			}
			if tc.statements > 0 && pm.Metrics.Statements != tc.statements {
				t.Errorf("%s, %v: shipped %d statements, want %d", tc.name, strat, pm.Metrics.Statements, tc.statements)
			}
			if tc.batchedRoundTrips > 0 && bm.Metrics.RoundTrips != tc.batchedRoundTrips {
				t.Errorf("%s, %v: batched took %d round trips, want %d",
					tc.name, strat, bm.Metrics.RoundTrips, tc.batchedRoundTrips)
			}
		}
	}
}

// TestBatchedProbeShortCircuitOnError: a probe the unbatched client
// would never execute (its node already permitted by an earlier rule)
// must not fail the batched expand — and an error the unbatched client
// WOULD hit must fail both the same way.
func TestBatchedProbeShortCircuitOnError(t *testing.T) {
	// Rule 1 permits every component; rule 2 errors at execution time
	// (missing table). Under OR short-circuit rule 2 never runs.
	okThenErr := core.StandardRules()
	okThenErr.MustAdd(core.Rule{
		User: core.Wildcard, Action: core.ActionAccess, ObjType: "comp",
		Kind: core.KindExistsStructure,
		Cond: "EXISTS (SELECT * FROM comp AS c2 WHERE c2.obid = comp.obid)",
	})
	okThenErr.MustAdd(core.Rule{
		User: core.Wildcard, Action: core.ActionAccess, ObjType: "comp",
		Kind: core.KindExistsStructure,
		Cond: "EXISTS (SELECT * FROM no_such_table WHERE no_such_table.x = comp.obid)",
	})
	srv := pdmServer(t)
	plain, _ := pdmClient(srv, okThenErr, core.DefaultUser("scott"), costmodel.EarlyEval)
	resP, errP := plain.MultiLevelExpand(context.Background(), 1)
	batched, _ := batchedClient(srv, okThenErr, core.DefaultUser("scott"), costmodel.EarlyEval)
	resB, errB := batched.MultiLevelExpand(context.Background(), 1)
	if errP != nil || errB != nil {
		t.Fatalf("permit-before-error must succeed on both paths: plain=%v batched=%v", errP, errB)
	}
	if resP.Visible != resB.Visible {
		t.Errorf("batched sees %d nodes, unbatched %d", resB.Visible, resP.Visible)
	}

	// With the erroring rule first, no permit precedes the error: both
	// clients must report it.
	errFirst := core.StandardRules()
	errFirst.MustAdd(core.Rule{
		User: core.Wildcard, Action: core.ActionAccess, ObjType: "comp",
		Kind: core.KindExistsStructure,
		Cond: "EXISTS (SELECT * FROM no_such_table WHERE no_such_table.x = comp.obid)",
	})
	plain2, _ := pdmClient(srv, errFirst, core.DefaultUser("scott"), costmodel.EarlyEval)
	_, errP2 := plain2.MultiLevelExpand(context.Background(), 1)
	batched2, _ := batchedClient(srv, errFirst, core.DefaultUser("scott"), costmodel.EarlyEval)
	_, errB2 := batched2.MultiLevelExpand(context.Background(), 1)
	if errP2 == nil || errB2 == nil {
		t.Fatalf("error-before-permit must fail on both paths: plain=%v batched=%v", errP2, errB2)
	}
}

// TestBatchedCheckOut: the batched modify flips the same flags and
// stays ahead of the unbatched client on round trips.
func TestBatchedCheckOut(t *testing.T) {
	srv := pdmServer(t)
	rules := core.StandardRules()
	rules.MustAdd(core.CheckOutRule())
	c, meter := batchedClient(srv, rules, core.DefaultUser("scott"), costmodel.EarlyEval)
	res, err := c.CheckOut(context.Background(), 1)
	if err != nil {
		t.Fatalf("batched check-out: %v", err)
	}
	if !res.Granted || res.Updated != 9 {
		t.Fatalf("batched check-out granted=%v updated=%d, want true/9", res.Granted, res.Updated)
	}
	if meter.Metrics.SavedRoundTrips <= 0 {
		t.Errorf("batched check-out saved %d round trips, want > 0", meter.Metrics.SavedRoundTrips)
	}
	res2, err := c.CheckIn(context.Background(), 1)
	if err != nil {
		t.Fatalf("batched check-in: %v", err)
	}
	if res2.Updated != 9 {
		t.Errorf("batched check-in updated %d, want 9", res2.Updated)
	}
}
