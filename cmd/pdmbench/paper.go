package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"pdmtune"
	"pdmtune/internal/costmodel"
)

// ---------------------------------------------------------------------------
// tables: the analytic model against the paper's printed Tables 2-4

var tableTitles = map[int]string{
	2: "Table 2 — response times, late evaluation (model vs paper)",
	3: "Table 3 — response times, early rule evaluation (model vs paper)",
	4: "Table 4 — multi-level expands with recursive queries (model vs paper)",
}

// tableRows are the rows a table prints per network: the extra key of
// the model value (the paper's printed value sits under "paper_"+key).
var tableRows = []struct{ label, key string }{
	{"latency", "latency_sec"}, {"transfer", "transfer_sec"}, {"total", "total_sec"}, {"saving %", "saving_pct"},
}

// runTables emits one record per table cell: (network, scenario, action)
// under the table's strategy. Table 4 has the MLE column only.
func runTables(*env) ([]record, error) {
	nets, scens := costmodel.PaperNetworks(), costmodel.PaperScenarios()
	late := costmodel.TableCells(costmodel.LateEval)
	var recs []record
	for n := 2; n <= 4; n++ {
		strat := costmodel.Strategies[n-2]
		cells := costmodel.TableCells(strat)
		for ni, net := range nets {
			for si, scen := range scens {
				for _, a := range costmodel.Actions {
					if n == 4 && a != costmodel.MLE {
						continue
					}
					est := cells[ni][si][a]
					extra := kv{
						"table": float64(n), "network": net.Name, "action": a.String(),
						"latency_sec": est.LatencySec, "transfer_sec": est.TransferSec, "total_sec": est.TotalSec,
						"saving_pct": costmodel.SavingPct(late[ni][si][a], est),
					}
					switch n {
					case 2:
						extra["paper_latency_sec"] = costmodel.PaperTable2Latency[ni][si][a]
						extra["paper_transfer_sec"] = costmodel.PaperTable2Transfer[ni][si][a]
						extra["paper_total_sec"] = costmodel.PaperTable2Total[ni][si][a]
					case 3: // early evaluation leaves the latency of Table 2 unchanged
						extra["paper_latency_sec"] = costmodel.PaperTable2Latency[ni][si][a]
						extra["paper_transfer_sec"] = costmodel.PaperTable3Transfer[ni][si][a]
						extra["paper_total_sec"] = costmodel.PaperTable3Total[ni][si][a]
						extra["paper_saving_pct"] = costmodel.PaperTable3Saving[ni][si][a]
					case 4:
						extra["paper_latency_sec"] = costmodel.PaperTable4Latency[ni][si]
						extra["paper_transfer_sec"] = costmodel.PaperTable4Transfer[ni][si]
						extra["paper_total_sec"] = costmodel.PaperTable4Total[ni][si]
						extra["paper_saving_pct"] = costmodel.PaperTable4Saving[ni][si]
					}
					recs = append(recs, record{
						Mode: "tables", Scenario: scen.Name,
						Config:       fmt.Sprintf("table %d, %s, %s, %s", n, net.Name, a, strat),
						PredictedSec: est.TotalSec, Extra: extra,
					})
				}
			}
		}
	}
	return recs, nil
}

func textTables(w io.Writer, recs []record) {
	for len(recs) > 0 {
		var tab []record
		tab, recs = cut(recs, byExtra("table"))
		n := int(tab[0].num("table"))
		fmt.Fprintln(w, tableTitles[n])
		firstNet, _ := cut(tab, byExtra("network"))
		header := fmt.Sprintf("%-28s", "")
		for _, r := range firstNet {
			label := r.Scenario
			if n != 4 {
				label += " " + r.str("action")
			}
			header += fmt.Sprintf("%-16s", label)
		}
		fmt.Fprintln(w, header)
		rows := tableRows
		if n == 2 {
			rows = rows[:3] // Table 2 is the baseline the savings are measured against
		}
		for len(tab) > 0 {
			var cells []record
			cells, tab = cut(tab, byExtra("network"))
			for _, row := range rows {
				line := fmt.Sprintf("%-28s", cells[0].str("network")+" "+row.label)
				for _, r := range cells {
					line += fmt.Sprintf("%-16s", fmt.Sprintf("%.2f (%.2f)", r.num(row.key), r.num("paper_"+row.key)))
				}
				fmt.Fprintln(w, line)
			}
			fmt.Fprintln(w)
		}
	}
}

// ---------------------------------------------------------------------------
// figure: Figures 4-5 as ASCII bar charts

var figureTitles = map[int]string{
	4: "Figure 4 — response times for δ=9, β=3, σ=0.6, T_Lat=150ms, dtr=512 kbit/s",
	5: "Figure 5 — response times for δ=7, β=5, σ=0.6, T_Lat=150ms, dtr=256 kbit/s",
}

func runFigures(*env) ([]record, error) {
	var recs []record
	for _, n := range []int{4, 5} {
		totals, scen := costmodel.Figure4(), costmodel.PaperScenarios()[1]
		if n == 5 {
			totals, scen = costmodel.Figure5(), costmodel.PaperScenarios()[2]
		}
		for si, strat := range costmodel.Strategies {
			for ai, a := range costmodel.Actions {
				recs = append(recs, record{
					Mode: "figure", Scenario: scen.Name,
					Config:       fmt.Sprintf("figure %d, %s, %s", n, a, strat),
					PredictedSec: totals[si][ai],
					Extra:        kv{"figure": float64(n), "strategy": strat.String(), "action": a.String()},
				})
			}
		}
	}
	return recs, nil
}

func textFigures(w io.Writer, recs []record) {
	const width = 48
	for len(recs) > 0 {
		var fig []record
		fig, recs = cut(recs, byExtra("figure"))
		fmt.Fprintln(w, figureTitles[int(fig[0].num("figure"))])
		maxVal := 0.0
		for _, r := range fig {
			maxVal = max(maxVal, r.PredictedSec)
		}
		for len(fig) > 0 {
			var bars []record
			bars, fig = cut(fig, byExtra("strategy"))
			fmt.Fprintf(w, "  %s\n", bars[0].str("strategy"))
			for _, r := range bars {
				bar := strings.Repeat("#", int(r.PredictedSec/maxVal*width+0.5))
				fmt.Fprintf(w, "    %-7s %9.2fs |%s\n", r.str("action"), r.PredictedSec, bar)
			}
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------------
// ablate: packet size, σ, and packet-vs-exact accounting

func runAblate(*env) ([]record, error) {
	var recs []record
	tree := costmodel.PaperScenarios()[1]
	for _, packet := range []float64{512, 1024, 4096, 16384} {
		m := costmodel.Model{Net: costmodel.Network{PacketBytes: packet, LatencySec: 0.15, RateKbps: 256}, Tree: tree}
		late, rec := m.Predict(costmodel.MLE, costmodel.LateEval), m.Predict(costmodel.MLE, costmodel.Recursive)
		recs = append(recs, record{
			Mode: "ablate", Scenario: tree.Name, Config: fmt.Sprintf("packet=%.0fB, late eval", packet),
			PredictedSec: late.TotalSec,
			Extra: kv{"ablation": "packet", "packet_bytes": packet,
				"recursive_sec": rec.TotalSec, "recursive_saving_pct": costmodel.SavingPct(late, rec)},
		})
	}
	for _, sigma := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		t := costmodel.Tree{Name: fmt.Sprintf("δ=9, β=3, σ=%.1f", sigma), Depth: 9, Branch: 3, Sigma: sigma}
		m := costmodel.Model{Net: costmodel.PaperNetworks()[0], Tree: t}
		late := m.Predict(costmodel.MLE, costmodel.LateEval)
		early, rec := m.Predict(costmodel.MLE, costmodel.EarlyEval), m.Predict(costmodel.MLE, costmodel.Recursive)
		recs = append(recs, record{
			Mode: "ablate", Scenario: t.Name, Config: "late eval", PredictedSec: late.TotalSec,
			Extra: kv{"ablation": "sigma", "sigma": sigma,
				"early_sec": early.TotalSec, "early_saving_pct": costmodel.SavingPct(late, early),
				"recursive_sec": rec.TotalSec, "recursive_saving_pct": costmodel.SavingPct(late, rec)},
		})
	}
	sys := pdmtune.NewSystem(nil)
	scen := costmodel.PaperScenarios()[0]
	prod, err := loadScenario(sys, scen, 1)
	if err != nil {
		return nil, err
	}
	for _, exact := range []bool{false, true} {
		link, name := pdmtune.Intercontinental(), "paper-packets"
		if exact {
			link.ExactBytes, name = true, "exact-bytes"
		}
		for _, strat := range []pdmtune.Strategy{pdmtune.LateEval, pdmtune.Recursive} {
			res, err := runAction(sys, link, pdmtune.MLE, prod.RootID, pdmtune.WithStrategy(strat))
			if err != nil {
				return nil, err
			}
			recs = append(recs, record{
				Mode: "ablate", Scenario: scen.Name, Config: name + ", " + strat.String(), Metrics: res.Metrics,
				Extra: kv{"ablation": "accounting", "accounting": name, "strategy": strat.String()},
			})
		}
	}
	return recs, nil
}

func textAblate(w io.Writer, recs []record) {
	for len(recs) > 0 {
		var part []record
		part, recs = cut(recs, byExtra("ablation"))
		switch part[0].str("ablation") {
		case "packet":
			fmt.Fprintln(w, "Ablation 1 — packet size sweep (δ=9, β=3, σ=0.6, 256 kbit/s / 150 ms, MLE)")
			for _, r := range part {
				fmt.Fprintf(w, "  packet=%6.0fB  late=%8.2fs  recursive=%6.2fs  saving=%.2f%%\n",
					r.num("packet_bytes"), r.PredictedSec, r.num("recursive_sec"), r.num("recursive_saving_pct"))
			}
		case "sigma":
			fmt.Fprintln(w, "Ablation 2 — σ sweep (δ=9, β=3, 256 kbit/s / 150 ms, MLE savings)")
			for _, r := range part {
				fmt.Fprintf(w, "  σ=%.1f  late=%9.2fs  early=%9.2fs (%5.2f%%)  recursive=%7.2fs (%5.2f%%)\n",
					r.num("sigma"), r.PredictedSec, r.num("early_sec"), r.num("early_saving_pct"),
					r.num("recursive_sec"), r.num("recursive_saving_pct"))
			}
		case "accounting":
			fmt.Fprintln(w, "Ablation 3 — paper packet accounting vs exact bytes (simulated, δ=3, β=9, MLE)")
			for _, r := range part {
				fmt.Fprintf(w, "  %-14s %-10s T=%8.2fs vol=%8.0f KiB\n",
					r.str("accounting"), r.str("strategy"), r.Metrics.TotalSec(), r.Metrics.VolumeBytes()/1024)
			}
		}
		fmt.Fprintln(w)
	}
}

// ---------------------------------------------------------------------------
// shared by the simulated modes

// treeName labels a generated product the way costmodel names the
// paper's scenarios.
func treeName(cfg pdmtune.ProductConfig) string {
	return fmt.Sprintf("δ=%d, β=%d, σ=%g", cfg.Depth, cfg.Branch, cfg.Sigma)
}

// loadScenario generates the product for one scenario into a fresh
// system; scenarios with fractional σβ use random visibility.
func loadScenario(sys *pdmtune.System, scen costmodel.Tree, seed int64) (*pdmtune.Product, error) {
	sigmaBeta := scen.Sigma * float64(scen.Branch)
	return sys.LoadProduct(pdmtune.ProductConfig{
		Depth: scen.Depth, Branch: scen.Branch, Sigma: scen.Sigma,
		Seed:             seed,
		RandomVisibility: sigmaBeta != float64(int(sigmaBeta)),
	})
}

// open opens a session for the named default user across the link.
func open(sys *pdmtune.System, link pdmtune.Link, user string, opts ...pdmtune.Option) (*pdmtune.Session, error) {
	return sys.Open(append([]pdmtune.Option{
		pdmtune.WithLink(link), pdmtune.WithUser(pdmtune.DefaultUser(user)),
	}, opts...)...)
}

// runAction opens a session with the options, runs one action and
// closes the session again.
func runAction(sys *pdmtune.System, link pdmtune.Link, action pdmtune.Action, target int64, opts ...pdmtune.Option) (*pdmtune.ActionResult, error) {
	sess, err := open(sys, link, "sim", opts...)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return sess.Run(context.Background(), action, target)
}

// tableState reads the named tables through a session into one
// canonical dump (sorted "table|value|…" lines) and counts the assy and
// comp rows still flagged checked out.
func tableState(ctx context.Context, s *pdmtune.Session, tables ...string) (dump string, checkedOut int, err error) {
	var lines []string
	for _, table := range tables {
		resp, err := s.Exec(ctx, "SELECT * FROM "+table)
		if err != nil {
			return "", 0, err
		}
		for _, row := range resp.Rows {
			parts := []string{table}
			for _, v := range row {
				parts = append(parts, v.String())
			}
			lines = append(lines, strings.Join(parts, "|"))
		}
	}
	sort.Strings(lines)
	for _, table := range []string{"assy", "comp"} {
		resp, err := s.Exec(ctx, "SELECT obid FROM "+table+" WHERE checkedout = TRUE")
		if err != nil {
			return "", 0, err
		}
		checkedOut += len(resp.Rows)
	}
	return strings.Join(lines, "\n"), checkedOut, nil
}
