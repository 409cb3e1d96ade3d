package core_test

import (
	"context"
	"errors"
	"testing"

	"pdmtune/internal/core"
	"pdmtune/internal/costmodel"
	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
	"pdmtune/internal/workload"
)

// preparedClient connects a metered client with prepared statements on
// (and optionally batching).
func preparedClient(srv *wire.Server, rules *core.RuleTable, user core.UserContext, s costmodel.Strategy, batched bool) (*core.Client, *netsim.Meter) {
	c, m := pdmClient(srv, rules, user, s)
	tune(c, func(k *costmodel.Knobs) { k.Prepared, k.Batching = true, batched })
	return c, m
}

// TestPreparedMLEMatchesText: under both navigational strategies,
// batched or not, the prepared client must see exactly the nodes the
// text client sees while shipping strictly fewer request payload bytes
// per statement (visible in SavedRequestBytes and PreparedExecs).
func TestPreparedMLEMatchesText(t *testing.T) {
	srv, prod := generatedServer(t, workload.Config{
		Depth: 3, Branch: 4, Sigma: 0.5, Seed: 7, PadBytes: 16,
	})
	ctx := context.Background()
	for _, strat := range []costmodel.Strategy{costmodel.LateEval, costmodel.EarlyEval} {
		for _, batched := range []bool{false, true} {
			text, _ := pdmClient(srv, core.StandardRules(), core.DefaultUser("scott"), strat)
			tune(text, func(k *costmodel.Knobs) { k.Batching = batched })
			resT, err := text.MultiLevelExpand(ctx, prod.RootID)
			if err != nil {
				t.Fatalf("%v batched=%v: text MLE: %v", strat, batched, err)
			}
			prep, pm := preparedClient(srv, core.StandardRules(), core.DefaultUser("scott"), strat, batched)
			resP, err := prep.MultiLevelExpand(ctx, prod.RootID)
			if err != nil {
				t.Fatalf("%v batched=%v: prepared MLE: %v", strat, batched, err)
			}
			idsT, idsP := visibleIDs(resT.Tree), visibleIDs(resP.Tree)
			if len(idsT) != len(idsP) {
				t.Fatalf("%v batched=%v: prepared sees %d nodes, text %d", strat, batched, len(idsP), len(idsT))
			}
			for i := range idsT {
				if idsT[i] != idsP[i] {
					t.Fatalf("%v batched=%v: node %d differs: %d != %d", strat, batched, i, idsP[i], idsT[i])
				}
			}
			if resP.RowsReceived != resT.RowsReceived {
				t.Errorf("%v batched=%v: prepared received %d rows, text %d",
					strat, batched, resP.RowsReceived, resT.RowsReceived)
			}
			if pm.Metrics.PreparedExecs == 0 {
				t.Errorf("%v batched=%v: no prepared executions recorded", strat, batched)
			}
			if pm.Metrics.SavedRequestBytes <= 0 {
				t.Errorf("%v batched=%v: SavedRequestBytes = %.0f, want > 0",
					strat, batched, pm.Metrics.SavedRequestBytes)
			}
		}
	}
}

// TestPreparedProbesMatchText: ∃structure probes executed as prepared
// statements preserve the per-node verdicts.
func TestPreparedProbesMatchText(t *testing.T) {
	srv := pdmServer(t)
	rules := core.StandardRules()
	rules.MustAdd(core.Rule{
		User: core.Wildcard, Action: core.ActionAccess, ObjType: "comp",
		Kind: core.KindExistsStructure,
		Cond: "EXISTS (SELECT * FROM specified_by AS s JOIN spec ON s.right = spec.obid WHERE s.left = comp.obid)",
	})
	want := []int64{2, 3, 4, 5, 101, 103}
	ctx := context.Background()
	for _, batched := range []bool{false, true} {
		c, meter := preparedClient(srv, rules, core.DefaultUser("scott"), costmodel.EarlyEval, batched)
		res, err := c.MultiLevelExpand(ctx, 1)
		if err != nil {
			t.Fatalf("batched=%v: prepared MLE: %v", batched, err)
		}
		ids := visibleIDs(res.Tree)
		if len(ids) != len(want) {
			t.Fatalf("batched=%v: prepared MLE = %v, want %v", batched, ids, want)
		}
		for i := range want {
			if ids[i] != want[i] {
				t.Errorf("batched=%v: node %d = %d, want %d", batched, i, ids[i], want[i])
			}
		}
		if meter.Metrics.PreparedExecs == 0 {
			t.Errorf("batched=%v: probes did not run prepared", batched)
		}
	}
}

// TestPreparedBatchedCheckOut: the prepared+batched check-out ships
// what the batched text client ships — the recursive fetch, then one
// batch of the two IN-list UPDATEs — and flips the same flags.
func TestPreparedBatchedCheckOut(t *testing.T) {
	srv := pdmServer(t)
	rules := core.StandardRules()
	rules.MustAdd(core.CheckOutRule())
	ctx := context.Background()
	c, meter := preparedClient(srv, rules, core.DefaultUser("scott"), costmodel.Recursive, true)
	res, err := c.CheckOut(ctx, 1)
	if err != nil {
		t.Fatalf("prepared check-out: %v", err)
	}
	if !res.Granted || res.Updated != 9 {
		t.Fatalf("prepared check-out granted=%v updated=%d, want true/9", res.Granted, res.Updated)
	}
	if meter.Metrics.PreparedExecs != 0 || meter.Metrics.Statements != 3 {
		t.Errorf("PreparedExecs = %d, Statements = %d, want 0 and 3 (recursive fetch + one batch of two UPDATEs)",
			meter.Metrics.PreparedExecs, meter.Metrics.Statements)
	}
	// A second check-out is denied; check-in restores.
	c2, _ := preparedClient(srv, rules, core.DefaultUser("erich"), costmodel.Recursive, true)
	res2, err := c2.CheckOut(ctx, 1)
	if err != nil {
		t.Fatalf("second prepared check-out: %v", err)
	}
	if res2.Granted {
		t.Error("second check-out must be denied by the ∀rows rule")
	}
	res3, err := c.CheckIn(ctx, 1)
	if err != nil {
		t.Fatalf("prepared check-in: %v", err)
	}
	if res3.Updated != 9 {
		t.Errorf("prepared check-in updated %d, want 9", res3.Updated)
	}
}

// TestRootTypeIsLookedUp: expanding a component root must label it
// "comp", not assume an assembly — and an id that exists in no object
// table is an error, not an empty assembly tree.
func TestRootTypeIsLookedUp(t *testing.T) {
	srv := pdmServer(t)
	ctx := context.Background()
	c, _ := pdmClient(srv, core.StandardRules(), core.DefaultUser("scott"), costmodel.EarlyEval)
	// 101 is Comp1 in the paper example: a leaf.
	res, err := c.Expand(ctx, 101)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree.Root.Type != "comp" {
		t.Errorf("root type = %q, want \"comp\"", res.Tree.Root.Type)
	}
	if len(res.Tree.Root.Children) != 0 {
		t.Errorf("component expand returned %d children", len(res.Tree.Root.Children))
	}
	// An assembly root keeps its type too.
	res2, err := c.Expand(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Tree.Root.Type != "assy" {
		t.Errorf("root type = %q, want \"assy\"", res2.Tree.Root.Type)
	}
	// Nonexistent object: error on every navigational action.
	if _, err := c.Expand(ctx, 424242); err == nil {
		t.Error("expand of nonexistent object succeeded")
	}
	if _, err := c.MultiLevelExpand(ctx, 424242); err == nil {
		t.Error("MLE of nonexistent object succeeded")
	}
}

// cancelAfterTransport cancels the context once n round trips have been
// attempted, simulating a user abort in the middle of a long MLE.
type cancelAfterTransport struct {
	inner  wire.Transport
	n      int
	count  int
	cancel context.CancelFunc
}

func (ct *cancelAfterTransport) RoundTrip(ctx context.Context, req []byte) ([]byte, error) {
	ct.count++
	if ct.count == ct.n {
		ct.cancel()
	}
	return ct.inner.RoundTrip(ctx, req)
}

// TestCancelMidMLEStopsRoundTrips: cancelling the context mid-expand
// returns ctx.Err() and stops issuing round trips — the meter records
// only the exchanges that happened before the cancellation.
func TestCancelMidMLEStopsRoundTrips(t *testing.T) {
	srv, prod := generatedServer(t, workload.Config{
		Depth: 3, Branch: 4, Sigma: 0.5, Seed: 7, PadBytes: 16,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	meter := netsim.NewMeter(netsim.Intercontinental())
	const after = 5
	tr := &cancelAfterTransport{
		inner:  &wire.MeteredChannel{Conn: srv.NewConn(), Meter: meter},
		n:      after,
		cancel: cancel,
	}
	c := core.NewClient(tr, meter, core.StandardRules(), core.DefaultUser("scott"), costmodel.LateEval)
	_, err := c.MultiLevelExpand(ctx, prod.RootID)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The nth attempt found the context cancelled: it was not charged,
	// and nothing was issued after it.
	if meter.Metrics.RoundTrips != after-1 {
		t.Errorf("charged %d round trips, want %d", meter.Metrics.RoundTrips, after-1)
	}
	if tr.count != after {
		t.Errorf("transport saw %d attempts, want %d", tr.count, after)
	}
}
