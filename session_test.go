package pdmtune_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdmtune"
	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
)

func treeIDs(t *testing.T, res *pdmtune.ActionResult) []int64 {
	t.Helper()
	if res.Tree == nil {
		t.Fatal("action returned no tree")
	}
	var ids []int64
	res.Tree.Walk(func(n *pdmtune.Node) { ids = append(ids, n.ObID) })
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestOpenDefaultsAndOptions: the zero Open works, and every option is
// reflected in the session's client.
func TestOpenDefaultsAndOptions(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	if err := sys.LoadPaperExample(); err != nil {
		t.Fatal(err)
	}
	sess, err := sys.Open()
	if err != nil {
		t.Fatal(err)
	}
	if sess.Client().Strategy() != pdmtune.Recursive {
		t.Errorf("default strategy = %v, want Recursive", sess.Client().Strategy())
	}
	res, err := sess.MultiLevelExpand(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visible != 8 {
		t.Errorf("default session MLE visible = %d, want 8", res.Visible)
	}

	sess2, err := sys.Open(
		pdmtune.WithLink(pdmtune.LAN()),
		pdmtune.WithUser(pdmtune.DefaultUser("scott")),
		pdmtune.WithStrategy(pdmtune.EarlyEval),
		pdmtune.WithBatching(true),
		pdmtune.WithPreparedStatements(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	c := sess2.Client()
	if k := c.Knobs(); k.Strategy != pdmtune.EarlyEval || !k.Batching || !k.Prepared || c.User().Name != "scott" {
		t.Errorf("options not applied: knobs %s, user %q", k, c.User().Name)
	}
	if sess2.Meter().Link.Name != pdmtune.LAN().Name {
		t.Errorf("link = %q, want LAN", sess2.Meter().Link.Name)
	}

	if _, err := sys.Open(pdmtune.WithStrategy(pdmtune.Strategy(99))); err == nil {
		t.Error("Open accepted an unknown strategy")
	}
	if _, err := sys.Open(pdmtune.WithTransport(nil)); err == nil {
		t.Error("Open accepted a nil transport")
	}
}

// TestRunRejectsUnknownAction: Run validates the action instead of
// silently falling through to a multi-level expand.
func TestRunRejectsUnknownAction(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	if err := sys.LoadPaperExample(); err != nil {
		t.Fatal(err)
	}
	sess, err := sys.Open()
	if err != nil {
		t.Fatal(err)
	}
	before := sess.Metrics()
	if _, err := sess.Run(context.Background(), pdmtune.Action(77), 1); err == nil {
		t.Fatal("Run accepted an unknown action")
	}
	if d := sess.Metrics().Sub(before); d.RoundTrips != 0 {
		t.Errorf("unknown action issued %d round trips", d.RoundTrips)
	}
	// The known actions still run.
	for _, a := range []pdmtune.Action{pdmtune.Query, pdmtune.Expand, pdmtune.MLE} {
		if _, err := sess.Run(context.Background(), a, 1); err != nil {
			t.Errorf("Run(%v): %v", a, err)
		}
	}
}

// TestWithRulesOverridesClientRules: a session opened with its own rule
// table evaluates those rules, not the system's.
func TestWithRulesOverridesClientRules(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	if err := sys.LoadPaperExample(); err != nil {
		t.Fatal(err)
	}
	rules := pdmtune.StandardRules()
	rules.MustAdd(pdmtune.Rule{
		User: "scott", Action: "multi-level-expand", ObjType: "assy",
		Kind: pdmtune.KindRow, Cond: "assy.make_or_buy <> 'buy'",
	})
	sess, err := sys.Open(pdmtune.WithUser(pdmtune.DefaultUser("scott")), pdmtune.WithRules(rules))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.MultiLevelExpand(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range treeIDs(t, res) {
		if id == 3 {
			t.Error("bought assembly 3 visible despite WithRules row condition")
		}
	}
}

// TestRuleAddedAfterFirstActionApplies: a rule added to a session's rule
// table between two actions governs the second one, under every
// strategy and with or without a structure cache — the rule-modified
// statement texts, the compiled client-side predicates and the cache
// profile all follow the table.
func TestRuleAddedAfterFirstActionApplies(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	if err := sys.LoadPaperExample(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, strat := range []pdmtune.Strategy{pdmtune.LateEval, pdmtune.EarlyEval, pdmtune.Recursive} {
		for _, cached := range []bool{false, true} {
			rules := pdmtune.StandardRules()
			opts := []pdmtune.Option{pdmtune.WithUser(pdmtune.DefaultUser("scott")),
				pdmtune.WithStrategy(strat), pdmtune.WithRules(rules)}
			if cached {
				opts = append(opts, pdmtune.WithCache(1024))
			}
			sess, err := sys.Open(opts...)
			if err != nil {
				t.Fatal(err)
			}
			visible3 := func() bool {
				res, err := sess.MultiLevelExpand(ctx, 1)
				if err != nil {
					t.Fatal(err)
				}
				return slices.Contains(treeIDs(t, res), 3)
			}
			if !visible3() {
				t.Fatalf("%v cached=%v: assembly 3 hidden before any rule hides it", strat, cached)
			}
			rules.MustAdd(pdmtune.Rule{
				User: "scott", Action: "multi-level-expand", ObjType: "assy",
				Kind: pdmtune.KindRow, Cond: "assy.make_or_buy <> 'buy'",
			})
			if visible3() {
				t.Errorf("%v cached=%v: bought assembly 3 visible after the rule hiding it was added", strat, cached)
			}
		}
	}
}

// TestRuleAddedWhileSessionsRun: adding a rule while other goroutines run
// actions is supported. One session expands, another checks out and in
// through the server's procedure — both look rules up in the table the
// main goroutine adds to — and under -race no access of the table may
// race with Add.
func TestRuleAddedWhileSessionsRun(t *testing.T) {
	rules := pdmtune.StandardRules()
	sys := pdmtune.NewSystem(rules)
	if err := sys.LoadPaperExample(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	open := func(strat pdmtune.Strategy) *pdmtune.Session {
		sess, err := sys.Open(pdmtune.WithUser(pdmtune.DefaultUser("scott")), pdmtune.WithStrategy(strat))
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	expander, checker := open(pdmtune.LateEval), open(pdmtune.Recursive)
	const adds = 20
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < adds; i++ {
			if _, err := expander.MultiLevelExpand(ctx, 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < adds; i++ {
			if _, err := checker.CheckOutViaProcedure(ctx, 1); err != nil {
				t.Error(err)
				return
			}
			if _, err := checker.CheckInViaProcedure(ctx, 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < adds; i++ {
		for _, action := range []string{"multi-level-expand", "check-out"} {
			rules.MustAdd(pdmtune.Rule{
				User: "scott", Action: action, ObjType: "assy",
				Kind: pdmtune.KindRow, Cond: fmt.Sprintf("assy.obid <> %d", -1-i),
			})
		}
	}
	wg.Wait()
	if got, want := rules.Len(), pdmtune.StandardRules().Len()+2*adds; got != want {
		t.Errorf("the table holds %d rules, want %d", got, want)
	}
}

// TestWithTransportCustom: a custom transport (here: the in-process
// server behind a caller-supplied metered wrapper) carries a session.
func TestWithTransportCustom(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	if err := sys.LoadPaperExample(); err != nil {
		t.Fatal(err)
	}
	meter := netsim.NewMeter(pdmtune.Intercontinental())
	inner := &wire.MeteredChannel{Conn: sys.Server.NewConn()} // unmetered inner
	sess, err := sys.Open(
		pdmtune.WithTransport(pdmtune.MeteredTransport(inner, meter)),
		pdmtune.WithMeter(meter),
		pdmtune.WithUser(pdmtune.DefaultUser("scott")),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.MultiLevelExpand(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Visible != 8 {
		t.Errorf("visible = %d, want 8", res.Visible)
	}
	if sess.Metrics().RoundTrips != 1 {
		t.Errorf("custom transport recorded %d round trips, want 1", sess.Metrics().RoundTrips)
	}
}

// TestPreparedAcceptanceD7B5: the acceptance scenario — on the paper's
// δ=7, β=5, σ=0.6 product a prepared-statement MLE produces an
// identical visible tree to the text-statement run with strictly fewer
// charged request bytes (both sessions batched, so the per-level
// request frames dominate the request volume).
func TestPreparedAcceptanceD7B5(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(pdmtune.ProductConfig{
		Depth: 7, Branch: 5, Sigma: 0.6, Seed: 2001,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	open := func(prepared bool) *pdmtune.Session {
		sess, err := sys.Open(
			pdmtune.WithLink(pdmtune.Intercontinental()),
			pdmtune.WithUser(pdmtune.DefaultUser("engineer")),
			pdmtune.WithStrategy(pdmtune.EarlyEval),
			pdmtune.WithBatching(true),
			pdmtune.WithPreparedStatements(prepared),
		)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	textSess := open(false)
	text, err := textSess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}
	prepSess := open(true)
	prep, err := prepSess.MultiLevelExpand(ctx, prod.RootID)
	if err != nil {
		t.Fatal(err)
	}

	idsT, idsP := treeIDs(t, text), treeIDs(t, prep)
	if len(idsT) != len(idsP) {
		t.Fatalf("prepared sees %d nodes, text sees %d", len(idsP), len(idsT))
	}
	for i := range idsT {
		if idsT[i] != idsP[i] {
			t.Fatalf("tree differs at %d: %d != %d", i, idsP[i], idsT[i])
		}
	}
	if prep.Visible != prod.VisibleNodes() {
		t.Errorf("visible = %d, ground truth %d", prep.Visible, prod.VisibleNodes())
	}

	mT, mP := text.Metrics, prep.Metrics
	if !(mP.RequestBytes < mT.RequestBytes) {
		t.Errorf("prepared request bytes %.0f, want strictly fewer than text %.0f",
			mP.RequestBytes, mT.RequestBytes)
	}
	if mP.PreparedExecs == 0 || mP.SavedRequestBytes <= 0 {
		t.Errorf("prepared accounting: execs=%d saved=%.0f", mP.PreparedExecs, mP.SavedRequestBytes)
	}
	if mP.TotalSec() >= mT.TotalSec() {
		t.Errorf("prepared simulated time %.2fs, want below text %.2fs", mP.TotalSec(), mT.TotalSec())
	}
	t.Logf("δ=7/β=5 MLE: request bytes %.0f -> %.0f (saved %.0f B of SQL text, %d prepared execs), T %.2fs -> %.2fs",
		mT.RequestBytes, mP.RequestBytes, mP.SavedRequestBytes, mP.PreparedExecs, mT.TotalSec(), mP.TotalSec())
}

// TestConcurrentSessions: many goroutines each open a session on one
// System and expand concurrently — exercised under -race in CI.
func TestConcurrentSessions(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(pdmtune.ProductConfig{
		Depth: 3, Branch: 3, Sigma: 0.6, Seed: 5, PadBytes: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	strategies := []pdmtune.Strategy{pdmtune.LateEval, pdmtune.EarlyEval, pdmtune.Recursive}
	var wg sync.WaitGroup
	visible := make([]int, 12)
	errs := make([]error, 12)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := sys.Open(
				pdmtune.WithUser(pdmtune.DefaultUser("scott")),
				pdmtune.WithStrategy(strategies[i%len(strategies)]),
				pdmtune.WithBatching(i%2 == 0),
				pdmtune.WithPreparedStatements(i%4 < 2),
			)
			if err != nil {
				errs[i] = err
				return
			}
			res, err := sess.MultiLevelExpand(context.Background(), prod.RootID)
			if err != nil {
				errs[i] = err
				return
			}
			visible[i] = res.Visible
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if visible[i] != visible[0] {
			t.Errorf("session %d sees %d nodes, session 0 sees %d", i, visible[i], visible[0])
		}
	}
}

// TestConcurrentStreamSessions: sessions on loopback TCP connections of
// their own to one server, each expanding, multi-level expanding and
// querying at once, read exactly the answers an in-process session of
// the same options reads alone. Run with -race.
func TestConcurrentStreamSessions(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(pdmtune.ProductConfig{
		ProdID: 1, Depth: 4, Branch: 4, Sigma: 0.6, Seed: 5, PadBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var served sync.WaitGroup
	defer served.Wait()
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			served.Add(1)
			go func() {
				defer served.Done()
				defer c.Close()
				_ = sys.Server.NewConn().Serve(c)
			}()
		}
	}()

	ctx := context.Background()
	strategies := []pdmtune.Strategy{pdmtune.LateEval, pdmtune.EarlyEval, pdmtune.Recursive}
	options := func(i int) []pdmtune.Option {
		return []pdmtune.Option{pdmtune.WithUser(pdmtune.DefaultUser("scott")),
			pdmtune.WithStrategy(strategies[i%len(strategies)]), pdmtune.WithBatching(i%2 == 0)}
	}
	actions := []pdmtune.Action{pdmtune.Expand, pdmtune.MLE, pdmtune.Query}
	targets := []int64{prod.RootID, prod.RootID, prod.Config.ProdID}
	run := func(sess *pdmtune.Session) ([]*pdmtune.ActionResult, error) {
		results := make([]*pdmtune.ActionResult, len(actions))
		for j, a := range actions {
			res, err := sess.Run(ctx, a, targets[j])
			if err != nil {
				return nil, fmt.Errorf("%v: %w", a, err)
			}
			res.Metrics = pdmtune.Metrics{} // the in-process run is metered, the TCP one not
			results[j] = res
		}
		return results, nil
	}

	const sessions = 8
	solo := make([][]*pdmtune.ActionResult, sessions)
	for i := range solo {
		sess, err := sys.Open(options(i)...)
		if err != nil {
			t.Fatal(err)
		}
		if solo[i], err = run(sess); err != nil {
			t.Fatal(err)
		}
		sess.Close()
	}
	got := make([][]*pdmtune.ActionResult, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := range got {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := sys.Open(append(options(i), pdmtune.WithTransport(pdmtune.StreamTransport(c)))...)
			if err != nil {
				errs[i] = err
				return
			}
			defer sess.Close()
			got[i], errs[i] = run(sess)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		for j, a := range actions {
			if !reflect.DeepEqual(got[i][j], solo[i][j]) {
				t.Errorf("session %d, %v over TCP: %d rows, %d visible; alone in-process: %d rows, %d visible",
					i, a, got[i][j].RowsReceived, got[i][j].Visible, solo[i][j].RowsReceived, solo[i][j].Visible)
			}
		}
	}
}

// TestSessionCancellation: a pre-cancelled context fails fast with
// ctx.Err() and charges nothing, through the facade.
func TestSessionCancellation(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	if err := sys.LoadPaperExample(); err != nil {
		t.Fatal(err)
	}
	sess, err := sys.Open(pdmtune.WithStrategy(pdmtune.LateEval))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.MultiLevelExpand(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if m := sess.Metrics(); m.RoundTrips != 0 {
		t.Errorf("cancelled session charged %d round trips", m.RoundTrips)
	}
}

// TestEveryActionCountsItself: each of the session's user actions
// reports itself in its own Metrics — one action, read or write — at
// the primary and at a replica site, where writes are charged to the
// WAN meter.
func TestEveryActionCountsItself(t *testing.T) {
	cl, err := pdmtune.NewCluster(nil, pdmtune.SiteConfig{Name: "munich"})
	if err != nil {
		t.Fatal(err)
	}
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 3, Sigma: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var part int64
	for id, n := range prod.Nodes {
		if n.Type == "comp" && (part == 0 || id < part) {
			part = id
		}
	}
	ctx := context.Background()
	for _, site := range []string{pdmtune.PrimarySite, "munich"} {
		sess, err := cl.OpenAt(ctx, site)
		if err != nil {
			t.Fatal(err)
		}
		actions := []struct {
			name string
			run  func() (pdmtune.Metrics, error)
		}{
			{"Query", func() (pdmtune.Metrics, error) { r, err := sess.Query(ctx, prod.Config.ProdID); return r.Metrics, err }},
			{"Expand", func() (pdmtune.Metrics, error) { r, err := sess.Expand(ctx, prod.RootID); return r.Metrics, err }},
			{"MultiLevelExpand", func() (pdmtune.Metrics, error) {
				r, err := sess.MultiLevelExpand(ctx, prod.RootID)
				return r.Metrics, err
			}},
			{"WhereUsed", func() (pdmtune.Metrics, error) { r, err := sess.WhereUsed(ctx, part); return r.Metrics, err }},
			{"Report", func() (pdmtune.Metrics, error) { r, err := sess.Report(ctx, prod.Config.ProdID); return r.Metrics, err }},
			{"CheckOut", func() (pdmtune.Metrics, error) { r, err := sess.CheckOut(ctx, prod.RootID); return r.Metrics, err }},
			{"CheckIn", func() (pdmtune.Metrics, error) { r, err := sess.CheckIn(ctx, prod.RootID); return r.Metrics, err }},
			{"CheckOutViaProcedure", func() (pdmtune.Metrics, error) {
				r, err := sess.CheckOutViaProcedure(ctx, prod.RootID)
				return r.Metrics, err
			}},
			{"CheckInViaProcedure", func() (pdmtune.Metrics, error) {
				r, err := sess.CheckInViaProcedure(ctx, prod.RootID)
				return r.Metrics, err
			}},
			{"ECOPropagate", func() (pdmtune.Metrics, error) {
				r, err := sess.ECOPropagate(ctx, part, "revised")
				return r.Metrics, err
			}},
		}
		for _, a := range actions {
			m, err := a.run()
			if err != nil {
				t.Fatalf("%s/%s: %v", site, a.name, err)
			}
			if m.Actions() != 1 {
				t.Errorf("%s/%s: Metrics count %d actions, want 1", site, a.name, m.Actions())
			}
		}
		sess.Close()
	}
}

// slowConn delays every write by its current delay: a server that takes
// that long to answer.
type slowConn struct {
	net.Conn
	delay *atomic.Int64 // nanoseconds
}

func (s slowConn) Write(p []byte) (int, error) {
	time.Sleep(time.Duration(s.delay.Load()))
	return s.Conn.Write(p)
}

// TestActionAfterExpiredOneOverStream: a LateEval session over
// StreamTransport whose Query outlives its deadline while the server is
// still answering fails that Query with the context's error, and its
// next action fails with *ConnClosedError instead of taking the Query's
// late answer for its own.
func TestActionAfterExpiredOneOverStream(t *testing.T) {
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(pdmtune.ProductConfig{ProdID: 1, Depth: 3, Branch: 4, Sigma: 0.8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var served sync.WaitGroup
	defer served.Wait()
	defer ln.Close()
	var delay atomic.Int64
	served.Add(1)
	go func() {
		defer served.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_ = sys.Server.NewConn().Serve(slowConn{Conn: c, delay: &delay})
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := sys.Open(pdmtune.WithUser(pdmtune.DefaultUser("scott")),
		pdmtune.WithStrategy(pdmtune.LateEval), pdmtune.WithTransport(pdmtune.StreamTransport(c)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()
	if _, err := sess.Expand(ctx, prod.RootID); err != nil {
		t.Fatal(err)
	}

	delay.Store(int64(200 * time.Millisecond))
	expiring, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := sess.Query(expiring, prod.Config.ProdID); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Query past its deadline: %v, want context.DeadlineExceeded", err)
	}
	delay.Store(0)
	res, err := sess.Expand(ctx, prod.RootID)
	var cce *pdmtune.ConnClosedError
	if !errors.As(err, &cce) {
		rows := 0
		if res != nil {
			rows = res.RowsReceived
		}
		t.Fatalf("Expand after the expired Query: %d rows, %v; want *ConnClosedError", rows, err)
	}
}
