package main

import (
	"context"
	"fmt"
	"io"
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
func runTables() ([]record, error) {
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

func runFigures() ([]record, error) {
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
// checkout: the Section 6 comparison

func runCheckout() ([]record, error) {
	ctx := context.Background()
	sys := pdmtune.NewSystem(nil)
	cfg := pdmtune.ProductConfig{Depth: 4, Branch: 4, Sigma: 0.5, Seed: 3}
	prod, err := sys.LoadProduct(cfg)
	if err != nil {
		return nil, err
	}
	var recs []record
	for i, m := range []struct {
		name     string
		strat    pdmtune.Strategy
		checkOut func(*pdmtune.Session, context.Context, int64) (*pdmtune.CheckOutResult, error)
	}{
		{"navigational (early eval)", pdmtune.EarlyEval, (*pdmtune.Session).CheckOut},
		{"recursive + updates", pdmtune.Recursive, (*pdmtune.Session).CheckOut},
		{"stored procedure", pdmtune.Recursive, (*pdmtune.Session).CheckOutViaProcedure},
	} {
		sess, err := sys.Open(pdmtune.WithLink(pdmtune.Intercontinental()),
			pdmtune.WithUser(pdmtune.DefaultUser(fmt.Sprintf("user%d", i))), pdmtune.WithStrategy(m.strat))
		if err != nil {
			return nil, err
		}
		defer sess.Close()
		res, err := m.checkOut(sess, ctx, prod.RootID)
		if err != nil {
			return nil, err
		}
		if _, err := sess.CheckInViaProcedure(ctx, prod.RootID); err != nil {
			return nil, err
		}
		recs = append(recs, record{
			Mode: "checkout", Scenario: fmt.Sprintf("δ=%d, β=%d, σ=%g", cfg.Depth, cfg.Branch, cfg.Sigma),
			Config: m.name, Metrics: res.Metrics,
			Extra: kv{"granted": res.Granted, "updated": float64(res.Updated)},
		})
	}
	return recs, nil
}

func textCheckout(w io.Writer, recs []record) {
	fmt.Fprintf(w, "Check-out comparison (Section 6) — %s, 256 kbit/s / 150 ms\n", recs[0].Scenario)
	for _, r := range recs {
		fmt.Fprintf(w, "  %-28s granted=%-5v updated=%-5.0f rt=%-5d T=%8.2fs\n",
			r.Config, r.Extra["granted"], r.num("updated"), r.Metrics.RoundTrips, r.Metrics.TotalSec())
	}
	fmt.Fprintln(w)
}
