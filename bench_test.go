package pdmtune_test

// One benchmark per table and figure of the paper's evaluation section.
//
// BenchmarkTable2/3/4 and BenchmarkFigure4/5 regenerate the analytic
// grids (which the paper itself computed) and report the headline cells
// as custom metrics; internal/costmodel's tests pin every cell to the
// printed values. BenchmarkSimulated* regenerates the same quantities
// from the full system — real SQL through the wire protocol across the
// simulated WAN — and reports the simulated response times, round trips
// and transferred volume. Run with:
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"pdmtune"
	"pdmtune/internal/core"
	"pdmtune/internal/costmodel"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/wire"
)

// ---------------------------------------------------------------------------
// Analytic benches (Tables 2-4, Figures 4-5)

func BenchmarkTable2(b *testing.B) {
	var cells [][][]costmodel.Estimate
	for i := 0; i < b.N; i++ {
		cells = costmodel.TableCells(costmodel.LateEval)
	}
	// Headline: the "half an hour" MLE of the intro (δ=7, β=5 at 256 kbit/s).
	b.ReportMetric(cells[0][2][2].TotalSec, "model_MLE_s")
	b.ReportMetric(cells[0][2][0].TotalSec, "model_Query_s")
}

func BenchmarkTable3(b *testing.B) {
	late := costmodel.TableCells(costmodel.LateEval)
	var early [][][]costmodel.Estimate
	for i := 0; i < b.N; i++ {
		early = costmodel.TableCells(costmodel.EarlyEval)
	}
	b.ReportMetric(costmodel.SavingPct(late[0][1][0], early[0][1][0]), "query_saving_pct")
	b.ReportMetric(costmodel.SavingPct(late[0][1][2], early[0][1][2]), "mle_saving_pct")
}

func BenchmarkTable4(b *testing.B) {
	late := costmodel.TableCells(costmodel.LateEval)
	var rec [][][]costmodel.Estimate
	for i := 0; i < b.N; i++ {
		rec = costmodel.TableCells(costmodel.Recursive)
	}
	mle := int(costmodel.MLE)
	b.ReportMetric(rec[0][2][mle].TotalSec, "rec_MLE_s")
	b.ReportMetric(costmodel.SavingPct(late[0][2][mle], rec[0][2][mle]), "saving_pct")
}

func BenchmarkFigure4(b *testing.B) {
	var f [3][3]float64
	for i := 0; i < b.N; i++ {
		f = costmodel.Figure4()
	}
	b.ReportMetric(f[0][2], "late_MLE_s")
	b.ReportMetric(f[1][2], "early_MLE_s")
	b.ReportMetric(f[2][2], "rec_MLE_s")
}

func BenchmarkFigure5(b *testing.B) {
	var f [3][3]float64
	for i := 0; i < b.N; i++ {
		f = costmodel.Figure5()
	}
	b.ReportMetric(f[0][2], "late_MLE_s")
	b.ReportMetric(f[1][2], "early_MLE_s")
	b.ReportMetric(f[2][2], "rec_MLE_s")
}

// ---------------------------------------------------------------------------
// Simulated benches: the full system on the paper's scenarios

// fixture caches one loaded PDM system per paper scenario.
type fixture struct {
	sys  *pdmtune.System
	prod *pdmtune.Product
}

var (
	fixturesMu sync.Mutex
	fixtures   = map[int]*fixture{}
)

// scenarioConfig maps a paper scenario index to a generator config.
// Scenarios with non-integral σβ use random visibility (unbiased
// expectation); δ=7 β=5 has σβ = 3 exactly and stays deterministic.
func scenarioConfig(idx int) pdmtune.ProductConfig {
	scen := costmodel.PaperScenarios()[idx]
	return pdmtune.ProductConfig{
		Depth:            scen.Depth,
		Branch:           scen.Branch,
		Sigma:            scen.Sigma,
		Seed:             int64(idx + 1),
		RandomVisibility: scen.Sigma*float64(scen.Branch) != float64(int(scen.Sigma*float64(scen.Branch))),
	}
}

func getFixture(b *testing.B, idx int) *fixture {
	b.Helper()
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	if f, ok := fixtures[idx]; ok {
		return f
	}
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(scenarioConfig(idx))
	if err != nil {
		b.Fatalf("loading scenario %d: %v", idx, err)
	}
	f := &fixture{sys: sys, prod: prod}
	fixtures[idx] = f
	return f
}

func simulatedBench(b *testing.B, scenIdx, netIdx int, action pdmtune.Action, strat pdmtune.Strategy) {
	f := getFixture(b, scenIdx)
	link := costmodel.PaperNetworks()[netIdx]
	user := pdmtune.DefaultUser("bench")
	target := f.prod.RootID
	if action == pdmtune.Query {
		target = f.prod.Config.ProdID
	}
	var res *pdmtune.ActionResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := f.sys.Open(pdmtune.WithLink(link), pdmtune.WithUser(user), pdmtune.WithStrategy(strat))
		if err != nil {
			b.Fatal(err)
		}
		res, err = sess.Run(context.Background(), action, target)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.Metrics.TotalSec(), "sim_s")
	b.ReportMetric(float64(res.Metrics.RoundTrips), "roundtrips")
	b.ReportMetric(res.Metrics.VolumeBytes()/1024, "wire_KiB")
	model := costmodel.Model{
		Net:  costmodel.PaperNetworks()[netIdx],
		Tree: costmodel.PaperScenarios()[scenIdx],
	}.Price(costmodel.Knobs{Strategy: costmodel.Strategy(strat)}, costmodel.Action(action))
	b.ReportMetric(model.TotalSec, "model_s")
}

// BenchmarkSimulated regenerates the tables' cells from the running
// system: scenario × action × strategy on the paper's slowest network
// (row 1 of each table; other rows are linear in latency/rate).
func BenchmarkSimulated(b *testing.B) {
	for scenIdx := range costmodel.PaperScenarios() {
		scen := costmodel.PaperScenarios()[scenIdx]
		for _, action := range costmodel.Actions {
			for _, strat := range costmodel.Strategies {
				if action != costmodel.MLE && strat == costmodel.Recursive {
					// Recursion applies to tree retrieval; Query/Expand
					// match early evaluation (cf. Figures 4/5).
					continue
				}
				name := fmt.Sprintf("d%d_b%d/%s/%s", scen.Depth, scen.Branch, action,
					map[costmodel.Strategy]string{
						costmodel.LateEval:  "late",
						costmodel.EarlyEval: "early",
						costmodel.Recursive: "recursive",
					}[strat])
				b.Run(name, func(b *testing.B) {
					simulatedBench(b, scenIdx, 0, pdmtune.Action(action), pdmtune.Strategy(strat))
				})
			}
		}
	}
}

// BenchmarkSimulatedBatched runs the navigational MLEs with statement
// batching enabled: one wire batch per BFS level instead of one round
// trip per node. For every cell it re-runs the unbatched client on the
// same fixture, asserts the visible result sets are identical, and
// reports both round-trip counts — the saved WAN latency is the metric.
func BenchmarkSimulatedBatched(b *testing.B) {
	for scenIdx := range costmodel.PaperScenarios() {
		scen := costmodel.PaperScenarios()[scenIdx]
		for _, strat := range []costmodel.Strategy{costmodel.LateEval, costmodel.EarlyEval} {
			name := fmt.Sprintf("d%d_b%d/MLE/%s", scen.Depth, scen.Branch,
				map[costmodel.Strategy]string{
					costmodel.LateEval:  "late",
					costmodel.EarlyEval: "early",
				}[strat])
			b.Run(name, func(b *testing.B) {
				simulatedBatchedBench(b, scenIdx, 0, pdmtune.Strategy(strat))
			})
		}
	}
}

func simulatedBatchedBench(b *testing.B, scenIdx, netIdx int, strat pdmtune.Strategy) {
	f := getFixture(b, scenIdx)
	link := costmodel.PaperNetworks()[netIdx]
	user := pdmtune.DefaultUser("bench")
	plainSess, err := f.sys.Open(pdmtune.WithLink(link), pdmtune.WithUser(user), pdmtune.WithStrategy(strat))
	if err != nil {
		b.Fatal(err)
	}
	plain, err := plainSess.MultiLevelExpand(context.Background(), f.prod.RootID)
	if err != nil {
		b.Fatal(err)
	}
	var res *pdmtune.ActionResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := f.sys.Open(pdmtune.WithLink(link), pdmtune.WithUser(user),
			pdmtune.WithStrategy(strat), pdmtune.WithBatching(true))
		if err != nil {
			b.Fatal(err)
		}
		res, err = sess.MultiLevelExpand(context.Background(), f.prod.RootID)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if res.Visible != plain.Visible {
		b.Fatalf("batched client sees %d nodes, unbatched %d — result sets differ",
			res.Visible, plain.Visible)
	}
	if res.Metrics.RoundTrips >= plain.Metrics.RoundTrips {
		b.Fatalf("batching saved nothing: %d round trips batched vs %d unbatched",
			res.Metrics.RoundTrips, plain.Metrics.RoundTrips)
	}
	b.ReportMetric(res.Metrics.TotalSec(), "sim_s")
	b.ReportMetric(float64(res.Metrics.RoundTrips), "roundtrips")
	b.ReportMetric(float64(plain.Metrics.RoundTrips), "unbatched_roundtrips")
	b.ReportMetric(float64(res.Metrics.SavedRoundTrips), "saved_roundtrips")
	b.ReportMetric(res.Metrics.VolumeBytes()/1024, "wire_KiB")
	model := costmodel.Model{
		Net:  costmodel.PaperNetworks()[netIdx],
		Tree: costmodel.PaperScenarios()[scenIdx],
	}.Price(costmodel.Knobs{Strategy: strat, Batching: true}, costmodel.MLE)
	b.ReportMetric(model.TotalSec, "model_s")
}

// BenchmarkSimulatedBatchedCheckOut measures the batched modify path:
// the whole check-out (batched expand + one batched flag update).
func BenchmarkSimulatedBatchedCheckOut(b *testing.B) {
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(pdmtune.ProductConfig{Depth: 4, Branch: 4, Sigma: 0.5, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	link := pdmtune.Intercontinental()
	var last *pdmtune.CheckOutResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		user := pdmtune.DefaultUser(fmt.Sprintf("bu%d", i))
		sess, err := sys.Open(pdmtune.WithLink(link), pdmtune.WithUser(user),
			pdmtune.WithStrategy(pdmtune.EarlyEval), pdmtune.WithBatching(true))
		if err != nil {
			b.Fatal(err)
		}
		client := sess.Client()
		last, err = client.CheckOut(context.Background(), prod.RootID)
		if err != nil {
			b.Fatal(err)
		}
		if !last.Granted {
			b.Fatal("check-out denied — previous iteration did not check in")
		}
		b.StopTimer()
		if _, err := client.CheckInViaProcedure(context.Background(), prod.RootID); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(last.Metrics.TotalSec(), "sim_s")
	b.ReportMetric(float64(last.Metrics.RoundTrips), "roundtrips")
	b.ReportMetric(float64(last.Metrics.SavedRoundTrips), "saved_roundtrips")
}

// BenchmarkCheckOut compares the three ways to check out a subtree
// (Section 6): navigational, recursive+updates, stored procedure.
func BenchmarkCheckOut(b *testing.B) {
	for _, mode := range []string{"navigational", "recursive", "procedure"} {
		b.Run(mode, func(b *testing.B) {
			sys := pdmtune.NewSystem(nil)
			prod, err := sys.LoadProduct(pdmtune.ProductConfig{Depth: 4, Branch: 4, Sigma: 0.5, Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			link := pdmtune.Intercontinental()
			var last *pdmtune.CheckOutResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				user := pdmtune.DefaultUser(fmt.Sprintf("u%d", i))
				strat := pdmtune.EarlyEval
				if mode != "navigational" {
					strat = pdmtune.Recursive
				}
				sess, err := sys.Open(pdmtune.WithLink(link), pdmtune.WithUser(user), pdmtune.WithStrategy(strat))
				if err != nil {
					b.Fatal(err)
				}
				client := sess.Client()
				if mode == "procedure" {
					last, err = client.CheckOutViaProcedure(context.Background(), prod.RootID)
				} else {
					last, err = client.CheckOut(context.Background(), prod.RootID)
				}
				if err != nil {
					b.Fatal(err)
				}
				if !last.Granted {
					b.Fatal("check-out denied — previous iteration did not check in")
				}
				// Release for the next iteration (not timed as WAN cost —
				// StopTimer/StartTimer keep the wall clock honest).
				b.StopTimer()
				if _, err := client.CheckInViaProcedure(context.Background(), prod.RootID); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(last.Metrics.TotalSec(), "sim_s")
			b.ReportMetric(float64(last.Metrics.RoundTrips), "roundtrips")
		})
	}
}

// BenchmarkEngineRecursiveQuery measures the local (server-side) cost of
// the Section 5.2 recursive query — the paper ignores local evaluation
// cost; this bench quantifies it for our engine: for the whole δ=3, β=9
// tree, and on the δ=7, β=5 tree (97,656 objects) for subtrees rooted at
// levels 0 to 4, whose cost must follow the subtree, not the database.
// wan/d7_b5/level2 runs the level-2 root under the wan-recursive
// benchmark workload's session options (v2 results, deflate, prepared
// statements, batching). Each case reports its allocations per visible
// node.
func BenchmarkEngineRecursiveQuery(b *testing.B) {
	run := func(f *fixture, root int64, opts ...pdmtune.Option) func(*testing.B) {
		return func(b *testing.B) {
			sess, err := f.sys.Open(append([]pdmtune.Option{pdmtune.WithLink(pdmtune.LAN()),
				pdmtune.WithUser(pdmtune.DefaultUser("bench")), pdmtune.WithStrategy(pdmtune.Recursive)}, opts...)...)
			if err != nil {
				b.Fatal(err)
			}
			visible := 0
			var before, after runtime.MemStats
			b.ReportAllocs()
			b.ResetTimer()
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				res, err := sess.MultiLevelExpand(context.Background(), root)
				if err != nil {
					b.Fatal(err)
				}
				visible = res.Visible
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N)/float64(max(visible, 1)), "allocs/node")
		}
	}
	f := getFixture(b, 0) // δ=3, β=9
	b.Run("d3_b9/root", run(f, f.prod.RootID))
	if testing.Short() {
		return
	}
	f = getFixture(b, 2) // δ=7, β=5
	roots := make([]int64, 5)
	for level := range roots {
		for id, n := range f.prod.Nodes { // the first visible assembly of the level
			if n.Level == level && n.Visible && n.Type == "assy" && (roots[level] == 0 || id < roots[level]) {
				roots[level] = id
			}
		}
		b.Run(fmt.Sprintf("d7_b5/level%d", level), run(f, roots[level]))
	}
	b.Run("wan/d7_b5/level2", run(f, roots[2], pdmtune.WithColumnarResults(true), pdmtune.WithCompression(true),
		pdmtune.WithPreparedStatements(true), pdmtune.WithBatching(true)))
}

// BenchmarkEngineQueryAll measures the server side of the Query action
// alone: the rule-modified statement, both `prod = ?` branches, executed
// on the engine without wire, compression or client. Only the visible
// nodes pass the rule filter (3,281 of the 97,656 rows on δ=7/β=5, the
// root included); the rule's sets_overlap conjunct becomes the keys of
// the path_opt index, so each branch reads just the rows it returns,
// checks prod on each and projects it.
func BenchmarkEngineQueryAll(b *testing.B) {
	run := func(f *fixture) func(*testing.B) {
		return func(b *testing.B) {
			q := core.BuildQueryAll()
			m := &core.Modifier{Rules: f.sys.Rules, User: pdmtune.DefaultUser("bench")}
			if err := m.ModifyNavigational(q, core.ActionQuery); err != nil {
				b.Fatal(err)
			}
			sql, prod := q.String(), types.NewInt(f.prod.Config.ProdID)
			sess := f.sys.DB.NewSession()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sess.Exec(sql, prod, prod)
				if err != nil {
					b.Fatal(err)
				}
				if want := 1 + f.prod.VisibleNodes(); len(res.Rows) != want { // the root is a node of the product too
					b.Fatalf("Query returned %d rows, ground truth %d", len(res.Rows), want)
				}
			}
		}
	}
	b.Run("d3_b9", run(getFixture(b, 0)))
	if testing.Short() {
		return
	}
	b.Run("d7_b5", run(getFixture(b, 2)))
}

// BenchmarkEngineReport measures the server side of the Report action
// alone: one aggregate row per node table over the product (COUNT(*), a
// float SUM and a SUM over CASE), keyed by the tables' prod index — every
// node row of the product is read and folded into three accumulators.
func BenchmarkEngineReport(b *testing.B) {
	run := func(f *fixture) func(*testing.B) {
		return func(b *testing.B) {
			sql, prod := core.BuildReportQuery().String(), types.NewInt(f.prod.Config.ProdID)
			sess := f.sys.DB.NewSession()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sess.Exec(sql, prod, prod)
				if err != nil {
					b.Fatal(err)
				}
				want := 1 + f.prod.AllNodes() // the root is a node of the product too
				if n := res.Rows[0][0].Int() + res.Rows[1][0].Int(); n != int64(want) {
					b.Fatalf("Report counted %d nodes, ground truth %d", n, want)
				}
			}
		}
	}
	b.Run("d3_b9", run(getFixture(b, 0)))
	if testing.Short() {
		return
	}
	b.Run("d7_b5", run(getFixture(b, 2)))
}

// TestRecursiveMLECostFollowsSubtree states what the index probe of the
// Section 5.2 statement's link branch is for: a recursive MLE of a small
// product allocates the same — within 5 % — whether the product is alone
// in the database or stands beside one over a hundred times its size.
// With the link branch a scan, the count grew with every link row stored.
func TestRecursiveMLECostFollowsSubtree(t *testing.T) {
	allocs := func(beside bool) float64 {
		sys := pdmtune.NewSystem(nil)
		small, err := sys.LoadProduct(pdmtune.ProductConfig{ProdID: 1, Depth: 3, Branch: 3, Sigma: 0.8, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if beside {
			big, err := sys.LoadProduct(pdmtune.ProductConfig{ProdID: 2, Depth: 6, Branch: 4, Sigma: 0.8, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			if big.AllNodes() < 20*small.AllNodes() {
				t.Fatalf("the other product has %d nodes, want at least 20 × %d", big.AllNodes(), small.AllNodes())
			}
		}
		sess, err := sys.Open(pdmtune.WithLink(pdmtune.LAN()),
			pdmtune.WithUser(pdmtune.DefaultUser("scale")), pdmtune.WithStrategy(pdmtune.Recursive))
		if err != nil {
			t.Fatal(err)
		}
		nodes := 0
		n := testing.AllocsPerRun(20, func() {
			res, err := sess.MultiLevelExpand(context.Background(), small.RootID)
			if err != nil {
				t.Fatal(err)
			}
			nodes = res.Visible
		})
		if nodes != small.VisibleNodes() {
			t.Fatalf("MLE returned %d nodes, ground truth %d", nodes, small.VisibleNodes())
		}
		return n
	}
	alone, beside := allocs(false), allocs(true)
	t.Logf("allocations per recursive MLE: %.0f alone, %.0f beside the large product", alone, beside)
	if diff := beside - alone; diff > 0.05*alone || diff < -0.05*alone {
		t.Errorf("recursive MLE of the small product: %.0f allocations alone, %.0f beside a large product (want within 5 %%)", alone, beside)
	}
}

// replayTransport answers each request with a copy of the server's
// answer the first time it saw that request, so that allocations
// measured over it are the client's own. misses counts the requests
// that reached the server; last is the latest answer.
type replayTransport struct {
	conn   *wire.ServerConn
	seen   map[string][]byte
	misses int
	last   []byte
}

func (r *replayTransport) RoundTrip(_ context.Context, req []byte) ([]byte, error) {
	resp, ok := r.seen[string(req)]
	if !ok {
		resp = bytes.Clone(r.conn.Handle(req))
		r.seen[string(req)] = resp
		r.misses++
	}
	r.last = resp
	return bytes.Clone(resp), nil // the client recycles the body it decodes
}

// inflateAllocs counts the allocations of inflating a compressed
// frame's deflate stream on its own: compress/flate builds its code
// tables anew for every block, so they follow the stream's blocks.
func inflateAllocs(frame []byte) float64 {
	if len(frame) == 0 || frame[0] != wire.TypeCompressed {
		return 0
	}
	_, n := binary.Uvarint(frame[1:])
	stream := frame[1+n:]
	return testing.AllocsPerRun(20, func() {
		_, _ = io.Copy(io.Discard, flate.NewReader(bytes.NewReader(stream)))
	})
}

// TestQueryAllocsFollowFrames states what decoding a result frame into
// one cell array, one text copy and one node array is for: the client
// allocates the same — within 5 % — for a Query of a small product and
// for one that ships over ten times its rows, both under late
// evaluation (v1 frames, every row filtered at the client) and under
// the wan-recursive benchmark workload's session options (v2 frames,
// deflate). With a row and a node per received row, the count grew with
// the product. The server's answers are replayed, so the count is the
// client's alone, and the inflater's per-block tables are taken out.
// The collector is off while counting: what a collection makes a path
// allocate again (a sync.Pool it emptied) is not the frame's cost.
func TestQueryAllocsFollowFrames(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts []pdmtune.Option
	}{
		{"late", []pdmtune.Option{pdmtune.WithStrategy(pdmtune.LateEval)}},
		{"wan-recursive", []pdmtune.Option{pdmtune.WithStrategy(pdmtune.Recursive), pdmtune.WithColumnarResults(true),
			pdmtune.WithCompression(true), pdmtune.WithPreparedStatements(true), pdmtune.WithBatching(true)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			allocs := func(cfg pdmtune.ProductConfig) (float64, int) {
				sys := pdmtune.NewSystem(nil)
				if _, err := sys.LoadProduct(cfg); err != nil {
					t.Fatal(err)
				}
				tr := &replayTransport{conn: sys.Server.NewConn(), seen: map[string][]byte{}}
				sess, err := sys.Open(append([]pdmtune.Option{pdmtune.WithTransport(tr),
					pdmtune.WithUser(pdmtune.DefaultUser("scale"))}, mode.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				rows := 0
				n := testing.AllocsPerRun(20, func() {
					res, err := sess.Run(context.Background(), pdmtune.Query, cfg.ProdID)
					if err != nil {
						t.Fatal(err)
					}
					rows = res.RowsReceived
				})
				if tr.misses > 2 {
					t.Fatalf("%d requests reached the server, want the session's hello and one Query", tr.misses)
				}
				return n - inflateAllocs(tr.last), rows
			}
			small, smallRows := allocs(pdmtune.ProductConfig{ProdID: 1, Depth: 3, Branch: 3, Sigma: 0.8, Seed: 1})
			large, largeRows := allocs(pdmtune.ProductConfig{ProdID: 1, Depth: 5, Branch: 4, Sigma: 0.8, Seed: 1})
			if largeRows < 10*smallRows {
				t.Fatalf("the large product ships %d rows, want at least 10 × %d", largeRows, smallRows)
			}
			t.Logf("client allocations per Query: %.0f for %d rows, %.0f for %d rows", small, smallRows, large, largeRows)
			if diff := large - small; diff > 0.05*small || diff < -0.05*small {
				t.Errorf("Query: %.0f client allocations for %d rows, %.0f for %d rows (want within 5 %%)", small, smallRows, large, largeRows)
			}
		})
	}
}

// BenchmarkSimulatedCachedMLE measures the warm structure cache: the
// first MLE fills it (cold, charged like an uncached batched run), the
// timed runs revalidate the cached tree in one exchange. The reported
// warm round trips are the acceptance headline: ≤ 1 per repeat.
func BenchmarkSimulatedCachedMLE(b *testing.B) {
	for scenIdx := range costmodel.PaperScenarios() {
		scen := costmodel.PaperScenarios()[scenIdx]
		name := fmt.Sprintf("d%d_b%d/MLE/early", scen.Depth, scen.Branch)
		b.Run(name, func(b *testing.B) {
			f := getFixture(b, scenIdx)
			link := costmodel.PaperNetworks()[0]
			sess, err := f.sys.Open(pdmtune.WithLink(link),
				pdmtune.WithUser(pdmtune.DefaultUser("bench")),
				pdmtune.WithStrategy(pdmtune.EarlyEval),
				pdmtune.WithBatching(true), pdmtune.WithCache(1<<20))
			if err != nil {
				b.Fatal(err)
			}
			cold, err := sess.MultiLevelExpand(context.Background(), f.prod.RootID)
			if err != nil {
				b.Fatal(err)
			}
			var warm *pdmtune.ActionResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				warm, err = sess.MultiLevelExpand(context.Background(), f.prod.RootID)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if warm.Visible != cold.Visible {
				b.Fatalf("warm MLE sees %d nodes, cold %d", warm.Visible, cold.Visible)
			}
			if warm.Metrics.RoundTrips > 1 {
				b.Fatalf("warm MLE cost %d round trips, want <= 1", warm.Metrics.RoundTrips)
			}
			b.ReportMetric(float64(cold.Metrics.RoundTrips), "cold_roundtrips")
			b.ReportMetric(float64(warm.Metrics.RoundTrips), "warm_roundtrips")
			b.ReportMetric(warm.Metrics.TotalSec(), "warm_sim_s")
			b.ReportMetric(cold.Metrics.TotalSec(), "cold_sim_s")
			b.ReportMetric(float64(warm.Metrics.CacheHits), "cache_hits")
		})
	}
}
