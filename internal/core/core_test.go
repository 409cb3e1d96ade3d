package core_test

import (
	"context"
	"math"
	"sort"
	"strings"
	"testing"

	"pdmtune/internal/core"
	"pdmtune/internal/costmodel"
	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/netsim"
	"pdmtune/internal/wire"
	"pdmtune/internal/workload"
)

// pdmServer builds a database server with the paper's Figure 2 example.
func pdmServer(t *testing.T) *wire.Server {
	t.Helper()
	db := minisql.NewDB()
	if err := workload.LoadPaperExample(db.NewSession()); err != nil {
		t.Fatalf("loading paper example: %v", err)
	}
	// The server's procedures enforce the check-out rule regardless of
	// which client calls them.
	rules := core.StandardRules()
	rules.MustAdd(core.CheckOutRule())
	core.RegisterProcedures(db, rules)
	return wire.NewServer(db)
}

// pdmClient connects a metered client under the given strategy.
func pdmClient(srv *wire.Server, rules *core.RuleTable, user core.UserContext, s costmodel.Strategy) (*core.Client, *netsim.Meter) {
	meter := netsim.NewMeter(netsim.Intercontinental())
	ch := &wire.MeteredChannel{Conn: srv.NewConn(), Meter: meter}
	return core.NewClient(ch, meter, rules, user, s), meter
}

// tune applies one change to a client's configuration. A change of
// batching, prepared statements, strategy or cache takes no round trip
// and cannot be refused, so an error is a broken client.
func tune(c *core.Client, change func(*costmodel.Knobs)) {
	k := c.Knobs()
	change(&k)
	if err := c.Apply(context.Background(), k); err != nil {
		panic(err)
	}
}

// generatedServer builds a server with a generated β-ary product.
func generatedServer(t *testing.T, cfg workload.Config) (*wire.Server, *workload.Product) {
	t.Helper()
	db := minisql.NewDB()
	prod, err := workload.Generate(db.NewSession(), cfg)
	if err != nil {
		t.Fatalf("generating workload: %v", err)
	}
	core.RegisterProcedures(db, core.StandardRules())
	return wire.NewServer(db), prod
}

func visibleIDs(tree *core.Tree) []int64 {
	var ids []int64
	tree.Walk(func(n *core.Node) {
		if tree.Root != n {
			ids = append(ids, n.ObID)
		}
	})
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestExpandPaperExample(t *testing.T) {
	srv := pdmServer(t)
	for _, strat := range costmodel.Strategies {
		c, _ := pdmClient(srv, core.StandardRules(), core.DefaultUser("scott"), strat)
		res, err := c.Expand(context.Background(), 1)
		if err != nil {
			t.Fatalf("%v: expand: %v", strat, err)
		}
		ids := visibleIDs(res.Tree)
		if len(ids) != 2 || ids[0] != 2 || ids[1] != 3 {
			t.Errorf("%v: children of 1 = %v, want [2 3]", strat, ids)
		}
	}
}

func TestMLEPaperExampleAllStrategies(t *testing.T) {
	srv := pdmServer(t)
	want := []int64{2, 3, 4, 5, 101, 102, 103, 104}
	for _, strat := range costmodel.Strategies {
		c, _ := pdmClient(srv, core.StandardRules(), core.DefaultUser("scott"), strat)
		res, err := c.MultiLevelExpand(context.Background(), 1)
		if err != nil {
			t.Fatalf("%v: MLE: %v", strat, err)
		}
		ids := visibleIDs(res.Tree)
		if len(ids) != len(want) {
			t.Fatalf("%v: MLE returned %v, want %v", strat, ids, want)
		}
		for i := range want {
			if ids[i] != want[i] {
				t.Errorf("%v: node %d = %d, want %d", strat, i, ids[i], want[i])
			}
		}
	}
}

func TestEffectivityFiltersLinks(t *testing.T) {
	srv := pdmServer(t)
	// Effectivity units 8..10: link 1001 (1-3) and 1006 (1-5) drop out,
	// so assembly 2's subtree and component 102 disappear.
	user := core.UserContext{Name: "scott", Options: "base", EffFrom: 8, EffTo: 10}
	for _, strat := range costmodel.Strategies {
		c, _ := pdmClient(srv, core.StandardRules(), user, strat)
		res, err := c.MultiLevelExpand(context.Background(), 1)
		if err != nil {
			t.Fatalf("%v: MLE: %v", strat, err)
		}
		ids := visibleIDs(res.Tree)
		want := []int64{3}
		if len(ids) != len(want) || ids[0] != want[0] {
			t.Errorf("%v: MLE with eff 8-10 = %v, want %v", strat, ids, want)
		}
	}
}

func TestScottRowRule(t *testing.T) {
	srv := pdmServer(t)
	// Paper example 1: Scott may multi-level-expand assemblies only if
	// they are not bought from a supplier. Assy3 has make_or_buy = 'buy'.
	rules := core.StandardRules()
	rules.MustAdd(core.Rule{
		User: "scott", Action: core.ActionMLE, ObjType: "assy",
		Kind: core.KindRow, Cond: "assy.make_or_buy <> 'buy'",
	})
	for _, strat := range costmodel.Strategies {
		c, _ := pdmClient(srv, rules, core.DefaultUser("scott"), strat)
		res, err := c.MultiLevelExpand(context.Background(), 1)
		if err != nil {
			t.Fatalf("%v: MLE: %v", strat, err)
		}
		for _, id := range visibleIDs(res.Tree) {
			if id == 3 {
				t.Errorf("%v: bought assembly 3 must be filtered", strat)
			}
		}
		// Another user is unaffected by Scott's rule.
		c2, _ := pdmClient(srv, rules, core.DefaultUser("erich"), strat)
		res2, err := c2.MultiLevelExpand(context.Background(), 1)
		if err != nil {
			t.Fatalf("%v: MLE as erich: %v", strat, err)
		}
		found := false
		for _, id := range visibleIDs(res2.Tree) {
			if id == 3 {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: assembly 3 must stay visible for other users", strat)
		}
	}
}

func TestExistsStructureRule(t *testing.T) {
	srv := pdmServer(t)
	// Section 5.3.2: components are visible only when specified by at
	// least one document. Specs exist for 101 and 103 only.
	rules := core.StandardRules()
	rules.MustAdd(core.Rule{
		User: core.Wildcard, Action: core.ActionAccess, ObjType: "comp",
		Kind: core.KindExistsStructure,
		Cond: "EXISTS (SELECT * FROM specified_by AS s JOIN spec ON s.right = spec.obid WHERE s.left = comp.obid)",
	})
	want := []int64{2, 3, 4, 5, 101, 103}
	for _, strat := range costmodel.Strategies {
		c, _ := pdmClient(srv, rules, core.DefaultUser("scott"), strat)
		res, err := c.MultiLevelExpand(context.Background(), 1)
		if err != nil {
			t.Fatalf("%v: MLE: %v", strat, err)
		}
		ids := visibleIDs(res.Tree)
		if len(ids) != len(want) {
			t.Fatalf("%v: MLE = %v, want %v", strat, ids, want)
		}
		for i := range want {
			if ids[i] != want[i] {
				t.Errorf("%v: node %d = %d, want %d", strat, i, ids[i], want[i])
			}
		}
	}
	// The navigational strategies pay probe round trips; the recursive
	// strategy must not.
	cNav, mNav := pdmClient(srv, rules, core.DefaultUser("scott"), costmodel.EarlyEval)
	if _, err := cNav.MultiLevelExpand(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	cRec, mRec := pdmClient(srv, rules, core.DefaultUser("scott"), costmodel.Recursive)
	if _, err := cRec.MultiLevelExpand(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if mRec.Metrics.RoundTrips != 1 {
		t.Errorf("recursive MLE took %d round trips, want 1", mRec.Metrics.RoundTrips)
	}
	if mNav.Metrics.RoundTrips <= mRec.Metrics.RoundTrips {
		t.Errorf("navigational probing should cost extra round trips (nav=%d rec=%d)",
			mNav.Metrics.RoundTrips, mRec.Metrics.RoundTrips)
	}
}

func TestTreeAggregateRule(t *testing.T) {
	srv := pdmServer(t)
	rules := core.StandardRules()
	// Section 5.3.3: the user may only retrieve trees containing at most
	// ten assemblies — the example tree has four visible ones, so it
	// survives; with a limit of two it must come back empty.
	rules.MustAdd(core.Rule{
		User: core.Wildcard, Action: core.ActionMLE, ObjType: core.TreeObjType,
		Kind: core.KindTreeAggregate,
		Cond: "(SELECT COUNT(*) FROM rtbl WHERE type = 'assy') <= 10",
	})
	for _, strat := range costmodel.Strategies {
		c, _ := pdmClient(srv, rules, core.DefaultUser("scott"), strat)
		res, err := c.MultiLevelExpand(context.Background(), 1)
		if err != nil {
			t.Fatalf("%v: MLE: %v", strat, err)
		}
		if res.Visible != 8 {
			t.Errorf("%v: visible = %d, want 8", strat, res.Visible)
		}
	}
	strict := core.StandardRules()
	strict.MustAdd(core.Rule{
		User: core.Wildcard, Action: core.ActionMLE, ObjType: core.TreeObjType,
		Kind: core.KindTreeAggregate,
		Cond: "(SELECT COUNT(*) FROM rtbl WHERE type = 'assy') <= 2",
	})
	for _, strat := range costmodel.Strategies {
		c, _ := pdmClient(srv, strict, core.DefaultUser("scott"), strat)
		res, err := c.MultiLevelExpand(context.Background(), 1)
		if err != nil {
			t.Fatalf("%v: strict MLE: %v", strat, err)
		}
		if res.Visible != 0 {
			t.Errorf("%v: strict visible = %d, want 0 (all-or-nothing)", strat, res.Visible)
		}
	}
}

func TestForAllRowsCheckOutRule(t *testing.T) {
	for _, strat := range costmodel.Strategies {
		srv := pdmServer(t) // fresh database per strategy (check-out mutates)
		rules := core.StandardRules()
		rules.MustAdd(core.CheckOutRule())
		c, _ := pdmClient(srv, rules, core.DefaultUser("scott"), strat)
		res, err := c.CheckOut(context.Background(), 1)
		if err != nil {
			t.Fatalf("%v: check-out: %v", strat, err)
		}
		if !res.Granted || res.Updated != 9 {
			t.Fatalf("%v: check-out granted=%v updated=%d, want true/9", strat, res.Granted, res.Updated)
		}
		// A second check-out must be denied: nodes are checked out now.
		c2, _ := pdmClient(srv, rules, core.DefaultUser("erich"), strat)
		res2, err := c2.CheckOut(context.Background(), 1)
		if err != nil {
			t.Fatalf("%v: second check-out: %v", strat, err)
		}
		if res2.Granted {
			t.Errorf("%v: second check-out must be denied by the ∀rows rule", strat)
		}
		// Check-in by the owner restores the tree.
		res3, err := c.CheckIn(context.Background(), 1)
		if err != nil {
			t.Fatalf("%v: check-in: %v", strat, err)
		}
		if res3.Updated != 9 {
			t.Errorf("%v: check-in updated %d, want 9", strat, res3.Updated)
		}
	}
}

func TestCheckOutProcedureOneRoundTrip(t *testing.T) {
	srv := pdmServer(t)
	rules := core.StandardRules()
	rules.MustAdd(core.CheckOutRule())
	c, meter := pdmClient(srv, rules, core.DefaultUser("scott"), costmodel.Recursive)
	res, err := c.CheckOutViaProcedure(context.Background(), 1)
	if err != nil {
		t.Fatalf("check-out via procedure: %v", err)
	}
	if !res.Granted || res.Updated != 9 {
		t.Fatalf("procedure check-out granted=%v updated=%d, want true/9", res.Granted, res.Updated)
	}
	if meter.Metrics.RoundTrips != 1 {
		t.Errorf("procedure check-out took %d round trips, want 1", meter.Metrics.RoundTrips)
	}
	// And it really is checked out.
	res2, err := c.CheckOutViaProcedure(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Granted {
		t.Error("second procedure check-out must be denied")
	}
	res3, err := c.CheckInViaProcedure(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Updated != 9 {
		t.Errorf("procedure check-in updated %d, want 9", res3.Updated)
	}
}

// TestCheckProcedureAnswerShape: a check procedure answers one row of
// (granted, updated, conflict). Any other answer, such as a
// procedure that answers two columns or no row, is an error, not a
// check-out the client half reads.
func TestCheckProcedureAnswerShape(t *testing.T) {
	for name, row := range map[string][]minisql.Row{
		"two columns": {{types.NewBool(true), types.NewInt(9)}},
		"no row":      nil,
	} {
		db := minisql.NewDB()
		if err := workload.LoadPaperExample(db.NewSession()); err != nil {
			t.Fatal(err)
		}
		core.RegisterProcedures(db, core.StandardRules())
		cols := []string{"granted", "updated"}
		db.RegisterProc("pdm_check_out", func(*minisql.Session, []minisql.Value) (*minisql.Result, error) {
			return &minisql.Result{Cols: cols, Rows: row}, nil
		})
		c, _ := pdmClient(wire.NewServer(db), nil, core.DefaultUser("scott"), costmodel.Recursive)
		res, err := c.CheckOutViaProcedure(context.Background(), 1)
		if err == nil || !strings.Contains(err.Error(), "pdm_check_out") {
			t.Errorf("%s: check-out answered %+v, %v; want an error naming pdm_check_out", name, res, err)
		}
	}
}

func TestStrategiesAgreeOnGeneratedTree(t *testing.T) {
	srv, prod := generatedServer(t, workload.Config{
		Depth: 3, Branch: 4, Sigma: 0.5, Seed: 7, PadBytes: 16,
	})
	var results [][]int64
	for _, strat := range costmodel.Strategies {
		c, _ := pdmClient(srv, core.StandardRules(), core.DefaultUser("scott"), strat)
		res, err := c.MultiLevelExpand(context.Background(), prod.RootID)
		if err != nil {
			t.Fatalf("%v: MLE: %v", strat, err)
		}
		results = append(results, visibleIDs(res.Tree))
	}
	if len(results[0]) == 0 {
		t.Fatal("no visible nodes — broken generator or rules")
	}
	for i := 1; i < len(results); i++ {
		if len(results[i]) != len(results[0]) {
			t.Fatalf("strategy %v sees %d nodes, strategy %v sees %d",
				costmodel.Strategies[i], len(results[i]), costmodel.Strategies[0], len(results[0]))
		}
		for j := range results[0] {
			if results[i][j] != results[0][j] {
				t.Fatalf("strategy %v node %d = %d, want %d",
					costmodel.Strategies[i], j, results[i][j], results[0][j])
			}
		}
	}
	// Ground truth: σβ = 2 exactly, so visible counts are 2, 4, 8.
	if got := prod.VisibleNodes(); got != 14 {
		t.Errorf("generator visible nodes = %d, want 14", got)
	}
	if len(results[0]) != 14 {
		t.Errorf("MLE visible nodes = %d, want 14", len(results[0]))
	}
}

func TestQueryAllStrategies(t *testing.T) {
	srv, prod := generatedServer(t, workload.Config{
		Depth: 3, Branch: 4, Sigma: 0.5, Seed: 7, PadBytes: 16,
	})
	cLate, _ := pdmClient(srv, core.StandardRules(), core.DefaultUser("scott"), costmodel.LateEval)
	late, err := cLate.QueryAll(context.Background(), 1)
	if err != nil {
		t.Fatalf("late query: %v", err)
	}
	cEarly, _ := pdmClient(srv, core.StandardRules(), core.DefaultUser("scott"), costmodel.EarlyEval)
	early, err := cEarly.QueryAll(context.Background(), 1)
	if err != nil {
		t.Fatalf("early query: %v", err)
	}
	if late.Visible != early.Visible {
		t.Errorf("late sees %d, early sees %d", late.Visible, early.Visible)
	}
	if late.Visible != prod.VisibleNodes()+1 { // +1: the root matches too
		t.Errorf("query sees %d nodes, want %d", late.Visible, prod.VisibleNodes()+1)
	}
	// Late evaluation must transfer the whole product; early only the
	// visible share.
	if late.RowsReceived != prod.AllNodes()+1 {
		t.Errorf("late received %d rows, want %d", late.RowsReceived, prod.AllNodes()+1)
	}
	if early.RowsReceived != early.Visible {
		t.Errorf("early received %d rows, want %d", early.RowsReceived, early.Visible)
	}
	if early.Metrics.ResponseBytes >= late.Metrics.ResponseBytes {
		t.Errorf("early eval must reduce transferred volume (%.0f >= %.0f)",
			early.Metrics.ResponseBytes, late.Metrics.ResponseBytes)
	}
}

// TestRoundTripCounts verifies the simulation reproduces the model's
// query counts: navigational MLE = 1 + n_v expand round trips (plus the
// root's one-off type lookup), recursive = 1.
func TestRoundTripCounts(t *testing.T) {
	srv, prod := generatedServer(t, workload.Config{
		Depth: 3, Branch: 4, Sigma: 0.5, Seed: 7, PadBytes: 16,
	})
	for _, strat := range []costmodel.Strategy{costmodel.LateEval, costmodel.EarlyEval} {
		c, meter := pdmClient(srv, core.StandardRules(), core.DefaultUser("scott"), strat)
		if _, err := c.MultiLevelExpand(context.Background(), prod.RootID); err != nil {
			t.Fatal(err)
		}
		want := 2 + prod.VisibleNodes()
		if meter.Metrics.RoundTrips != want {
			t.Errorf("%v: %d round trips, want %d", strat, meter.Metrics.RoundTrips, want)
		}
	}
	c, meter := pdmClient(srv, core.StandardRules(), core.DefaultUser("scott"), costmodel.Recursive)
	if _, err := c.MultiLevelExpand(context.Background(), prod.RootID); err != nil {
		t.Fatal(err)
	}
	if meter.Metrics.RoundTrips != 1 {
		t.Errorf("recursive MLE: %d round trips, want 1", meter.Metrics.RoundTrips)
	}
}

// TestSimulatedSavingsShape: on a mid-size tree the simulation must
// reproduce the paper's shape — early evaluation barely helps MLE,
// recursion eliminates ≳95 % of the delay.
func TestSimulatedSavingsShape(t *testing.T) {
	srv, prod := generatedServer(t, workload.Config{
		Depth: 4, Branch: 4, Sigma: 0.5, Seed: 11, PadBytes: 420,
	})
	totals := map[costmodel.Strategy]float64{}
	for _, strat := range costmodel.Strategies {
		c, meter := pdmClient(srv, core.StandardRules(), core.DefaultUser("scott"), strat)
		if _, err := c.MultiLevelExpand(context.Background(), prod.RootID); err != nil {
			t.Fatal(err)
		}
		totals[strat] = meter.Metrics.TotalSec()
	}
	if !(totals[costmodel.Recursive] < totals[costmodel.EarlyEval] &&
		totals[costmodel.EarlyEval] < totals[costmodel.LateEval]) {
		t.Fatalf("ordering violated: late=%.2f early=%.2f rec=%.2f",
			totals[costmodel.LateEval], totals[costmodel.EarlyEval], totals[costmodel.Recursive])
	}
	saving := (1 - totals[costmodel.Recursive]/totals[costmodel.LateEval]) * 100
	if saving < 90 {
		t.Errorf("recursive saving = %.1f%%, expected ≳90%% (paper: >95%%)", saving)
	}
	// Early evaluation alone saves little on MLE (paper: ~2%).
	earlySaving := (1 - totals[costmodel.EarlyEval]/totals[costmodel.LateEval]) * 100
	if earlySaving > 30 {
		t.Errorf("early-eval MLE saving = %.1f%%, expected small (paper: ~2%%)", earlySaving)
	}
}

// TestGeneratorGroundTruth checks the generator's visible counts track
// (σβ)^i and the padding produces ~512 B node rows on the wire.
func TestGeneratorGroundTruth(t *testing.T) {
	srv, prod := generatedServer(t, workload.Config{
		Depth: 4, Branch: 5, Sigma: 0.6, Seed: 3, PadBytes: 420,
	})
	_ = srv
	sb := prod.Config.Sigma * float64(prod.Config.Branch) // 3.0
	expect := 1.0
	for lvl := 1; lvl <= prod.Config.Depth; lvl++ {
		expect *= sb
		got := float64(prod.VisibleCount[lvl])
		if math.Abs(got-expect) > expect/2 {
			t.Errorf("level %d: visible = %.0f, expected ≈ %.0f", lvl, got, expect)
		}
	}
	total := 0
	for lvl := 1; lvl <= prod.Config.Depth; lvl++ {
		total += prod.TotalCount[lvl]
	}
	want := 0
	pow := 1
	for lvl := 1; lvl <= prod.Config.Depth; lvl++ {
		pow *= prod.Config.Branch
		want += pow
	}
	if total != want {
		t.Errorf("total nodes = %d, want %d", total, want)
	}
}

// TestExplainPDMStatements: the server's EXPLAIN of the statements this
// package ships shows the access paths the paper's tuning rests on — the
// recursive branches probe link_left_idx per delta row, every IN
// (id-list) statement is a key-set lookup, and the link branch of the
// Section 5.2 query probes link_left_idx with the recursion table as its
// key set and hashes it again for `right`: no statement scans link. The
// rule-modified Query reads each table through its path_opt index, the
// keys the rule admits derived from the index's keys.
func TestExplainPDMStatements(t *testing.T) {
	s := minisql.NewDB().NewSession()
	if err := workload.LoadPaperExample(s); err != nil {
		t.Fatal(err)
	}
	// One node per table that the rule hides, so that the rule admits
	// fewer of the product's rows than prod = ? does.
	if _, err := s.ExecScript(`
INSERT INTO assy (type, obid, prod, name, dec, make_or_buy, state, weight, checkedout, checkedout_by, path_opt, data) VALUES
  ('assy', 9, 1, 'Assy9', '+', 'make', 'released', 1.0, FALSE, NULL, 'opt17', '');
INSERT INTO comp (type, obid, prod, name, material, state, weight, checkedout, checkedout_by, path_opt, data) VALUES
  ('comp', 108, 1, 'Comp8', 'steel', 'released', 0.1, FALSE, NULL, 'opt17', '');`); err != nil {
		t.Fatal(err)
	}
	plan := func(sql string, params ...minisql.Value) string {
		t.Helper()
		res, err := s.Exec("EXPLAIN "+sql, params...)
		if err != nil {
			t.Fatalf("EXPLAIN %s: %v", sql, err)
		}
		out := ""
		for _, r := range res.Rows {
			out += r[0].Text() + "\n"
		}
		return out
	}
	one := types.NewInt(1)
	recursive := plan(core.BuildRecursiveQuery().String(), one)
	for _, want := range []string{
		"RECURSIVE CTE (semi-naive fixpoint) rtbl:\n",
		"INDEX assy_pk ON assy (obid): 1 key(s)\n",
		"INNER INDEX JOIN link USING link_left_idx ON (rtbl.obid = link.left)\n    INNER INDEX JOIN assy USING assy_pk ON (link.right = assy.obid)\n",
		"INNER INDEX JOIN link USING link_left_idx ON (rtbl.obid = link.left)\n    INNER INDEX JOIN comp USING comp_pk ON (link.right = comp.obid)\n",
		"  INDEX link_left_idx ON link (left): keys from (SELECT obid FROM rtbl), right among keys from (SELECT obid FROM rtbl)\n" +
			"    SELECT\n      CTE SCAN rtbl\n    SELECT\n      CTE SCAN rtbl\nSORT (2 key(s))\n",
	} {
		if !strings.Contains(recursive, want) {
			t.Errorf("recursive query: plan lacks %q:\n%s", want, recursive)
		}
	}
	if strings.Contains(recursive, "SCAN link") || strings.Contains(recursive, "FILTER") {
		t.Errorf("recursive query: link is scanned or filtered row by row:\n%s", recursive)
	}
	// Report: each branch is one index lookup on prod, nothing scanned.
	report := plan(core.BuildReportQuery().String(), one, one)
	for _, table := range []string{"assy", "comp"} {
		if want := "INDEX " + table + "_prod_idx ON " + table + " (prod): 1 key(s)\n"; !strings.Contains(report, want) {
			t.Errorf("report: plan lacks %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "SCAN") || strings.Contains(report, "FILTER") {
		t.Errorf("report: a table is scanned or filtered row by row:\n%s", report)
	}
	// Where-used: the closure probes link_right_idx level by level, and
	// each record-fetch branch looks its table's keys up from the CTE.
	whereUsed := plan(core.BuildWhereUsedQuery().String(), types.NewInt(8))
	for _, want := range []string{
		"RECURSIVE CTE (semi-naive fixpoint) wtbl:\n",
		"INDEX link_right_idx ON link (right): 1 key(s)\n",
		"INNER INDEX JOIN link USING link_right_idx ON (wtbl.obid = link.right)\n",
		"INDEX assy_pk ON assy (obid): keys from (SELECT obid FROM wtbl)\n",
		"INDEX comp_pk ON comp (obid): keys from (SELECT obid FROM wtbl)\n",
	} {
		if !strings.Contains(whereUsed, want) {
			t.Errorf("where-used query: plan lacks %q:\n%s", want, whereUsed)
		}
	}
	if strings.Contains(whereUsed, "SCAN link") || strings.Contains(whereUsed, "SCAN assy") || strings.Contains(whereUsed, "SCAN comp") {
		t.Errorf("where-used query: a table is scanned:\n%s", whereUsed)
	}
	// Query: the rule's sets_overlap conjunct becomes the path_opt index's
	// keys, prod a filter, and no row is scanned or filtered by the rule.
	q := core.BuildQueryAll()
	m := &core.Modifier{Rules: core.StandardRules(), User: core.DefaultUser("u")}
	if err := m.ModifyNavigational(q, core.ActionQuery); err != nil {
		t.Fatal(err)
	}
	query := plan(q.String(), one, one)
	for _, table := range []string{"assy", "comp"} {
		want := "INDEX " + table + "_path_opt_idx ON " + table + " (path_opt): 1 key(s) where sets_overlap(" +
			table + ".path_opt, 'base'), prod among 1 key(s)\n"
		if !strings.Contains(query, want) {
			t.Errorf("query: plan lacks %q:\n%s", want, query)
		}
	}
	if strings.Contains(query, "SCAN") || strings.Contains(query, "FILTER") {
		t.Errorf("query: a table is scanned or filtered row by row:\n%s", query)
	}
	for sql, want := range map[string]string{
		core.BuildExpandQuery().String():                                          "INDEX link_left_idx ON link (left): 1 key(s)\n  INNER INDEX JOIN assy USING assy_pk",
		core.BuildWhereUsedLevelSQL([]int64{3, 4, 5}):                             "INDEX link_right_idx ON link (right): 3 key(s)\n",
		core.BuildFetchNodesSQL([]int64{1, 2}):                                    "INDEX comp_pk ON comp (obid): 2 key(s)\n",
		"UPDATE assy SET state = 'x' WHERE obid IN (1, 2) AND checkedout <> TRUE": "INDEX assy_pk ON assy (obid): 2 key(s)\n  FILTER (checkedout <> TRUE)\n",
	} {
		if got := plan(sql, one, one); !strings.Contains(got, want) {
			t.Errorf("%s: plan lacks %q:\n%s", sql, want, got)
		}
	}
}

// TestQueryFollowsUpdatesAndSnapshots: the rule-modified Query reads
// through the path_opt index, its keys derived from the index's keys per
// statement, so an UPDATE of path_opt moves a node in and out of the
// answer, and a key first written by a commit after the statement pinned
// its epoch shows no row to that statement — only to the next one.
func TestQueryFollowsUpdatesAndSnapshots(t *testing.T) {
	db := minisql.NewDB()
	s := db.NewSession()
	if err := workload.LoadPaperExample(s); err != nil {
		t.Fatal(err)
	}
	rules := core.StandardRules()
	core.RegisterProcedures(db, rules)
	srv := wire.NewServer(db)
	c, _ := pdmClient(srv, rules, core.DefaultUser("scott"), costmodel.Recursive)
	query := func() map[int64]bool {
		t.Helper()
		res, err := c.QueryAll(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		got := map[int64]bool{}
		for _, n := range res.Objects {
			got[n.ObID] = true
		}
		return got
	}
	exec := func(sql string) {
		t.Helper()
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	exec(`INSERT INTO assy (type, obid, prod, name, dec, make_or_buy, state, weight, checkedout, checkedout_by, path_opt, data)
  VALUES ('assy', 9, 1, 'Assy9', '+', 'make', 'released', 1.0, FALSE, NULL, 'opt17', '')`)
	if got := query(); len(got) != 15 || got[9] {
		t.Fatalf("query before the updates: %d nodes %v, want the example's 15", len(got), got)
	}
	exec("UPDATE assy SET path_opt = 'base' WHERE obid = 9")
	if got := query(); len(got) != 16 || !got[9] {
		t.Errorf("after path_opt 'opt17' -> 'base': %v, want node 9 in", got)
	}
	exec("UPDATE assy SET path_opt = 'opt17' WHERE obid = 9")
	if got := query(); len(got) != 15 || got[9] {
		t.Errorf("after path_opt 'base' -> 'opt17': %v, want node 9 out", got)
	}

	// A reader pins its epoch; while its assy branch runs, another
	// session commits a comp node under a path_opt value no row had —
	// before the comp branch reads the index's keys.
	other := db.NewSession()
	committed := false
	db.RegisterFunc("commit_once", func([]minisql.Value) (minisql.Value, error) {
		if !committed {
			committed = true
			if _, err := other.Exec(`INSERT INTO comp (type, obid, prod, name, material, state, weight, checkedout, checkedout_by, path_opt, data)
  VALUES ('comp', 109, 1, 'Comp9', 'steel', 'released', 0.1, FALSE, NULL, 'base,opt3', '')`); err != nil {
				return types.Null, err
			}
		}
		return types.NewBool(true), nil
	})
	q := core.BuildQueryAll()
	m := &core.Modifier{Rules: rules, User: core.DefaultUser("scott")}
	if err := m.ModifyNavigational(q, core.ActionQuery); err != nil {
		t.Fatal(err)
	}
	sql := strings.Replace(q.String(), "assy.prod = ?", "assy.prod = ? AND commit_once()", 1)
	res, err := s.Exec(sql, types.NewInt(1), types.NewInt(1))
	if err != nil || !committed {
		t.Fatalf("pinned reader: %v, committed %v\n%s", err, committed, sql)
	}
	for _, row := range res.Rows {
		if row[1].Int() == 109 {
			t.Errorf("a reader pinned before the commit sees node 109")
		}
	}
	if len(res.Rows) != 15 {
		t.Errorf("pinned reader: %d rows, want 15", len(res.Rows))
	}
	if got := query(); len(got) != 16 || !got[109] {
		t.Errorf("the next statement: %v, want node 109 too", got)
	}
}
