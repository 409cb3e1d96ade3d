package costmodel

import (
	"math"
	"testing"
)

// tol is the tolerance against the paper's 2-decimal printed values: a
// correct computation rounds to the printed value, so the difference is
// below 0.005 plus a little slack.
const tol = 0.006

func approx(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.4f, paper prints %.2f (diff %.4f)", what, got, want, math.Abs(got-want))
	}
}

// TestTable2 verifies every cell of Table 2 (late evaluation).
func TestTable2(t *testing.T) {
	cells := TableCells(LateEval)
	for ni := range cells {
		for si := range cells[ni] {
			for ai := range cells[ni][si] {
				est := cells[ni][si][ai]
				name := PaperNetworks()[ni].Name + " / " + PaperScenarios()[si].Name + " / " + Actions[ai].String()
				approx(t, "Table2 latency "+name, est.LatencySec, PaperTable2Latency[ni][si][ai])
				approx(t, "Table2 transfer "+name, est.TransferSec, PaperTable2Transfer[ni][si][ai])
				approx(t, "Table2 total "+name, est.TotalSec, PaperTable2Total[ni][si][ai])
			}
		}
	}
}

// TestTable3 verifies every cell of Table 3 (early rule evaluation),
// including the saving percentages relative to Table 2.
func TestTable3(t *testing.T) {
	late := TableCells(LateEval)
	early := TableCells(EarlyEval)
	for ni := range early {
		for si := range early[ni] {
			for ai := range early[ni][si] {
				est := early[ni][si][ai]
				name := PaperNetworks()[ni].Name + " / " + PaperScenarios()[si].Name + " / " + Actions[ai].String()
				// Latency is unchanged by early evaluation.
				approx(t, "Table3 latency "+name, est.LatencySec, PaperTable2Latency[ni][si][ai])
				approx(t, "Table3 transfer "+name, est.TransferSec, PaperTable3Transfer[ni][si][ai])
				approx(t, "Table3 total "+name, est.TotalSec, PaperTable3Total[ni][si][ai])
				saving := SavingPct(late[ni][si][ai], est)
				approx(t, "Table3 saving "+name, saving, PaperTable3Saving[ni][si][ai])
			}
		}
	}
}

// TestTable4 verifies the recursive-query MLE column of Table 4.
func TestTable4(t *testing.T) {
	late := TableCells(LateEval)
	rec := TableCells(Recursive)
	mle := int(MLE)
	for ni := range rec {
		for si := range rec[ni] {
			est := rec[ni][si][mle]
			name := PaperNetworks()[ni].Name + " / " + PaperScenarios()[si].Name
			approx(t, "Table4 latency "+name, est.LatencySec, PaperTable4Latency[ni][si])
			approx(t, "Table4 transfer "+name, est.TransferSec, PaperTable4Transfer[ni][si])
			approx(t, "Table4 total "+name, est.TotalSec, PaperTable4Total[ni][si])
			saving := SavingPct(late[ni][si][mle], est)
			approx(t, "Table4 saving "+name, saving, PaperTable4Saving[ni][si])
		}
	}
}

// TestFigures checks the bar heights of Figures 4 and 5 against the
// corresponding table columns.
func TestFigures(t *testing.T) {
	f4 := Figure4()
	approx(t, "Fig4 late MLE", f4[0][2], 181.02)
	approx(t, "Fig4 early Query", f4[1][0], 3.86)
	approx(t, "Fig4 recursion MLE", f4[2][2], 3.86)
	f5 := Figure5()
	approx(t, "Fig5 late MLE", f5[0][2], 1684.39)
	approx(t, "Fig5 early MLE", f5[1][2], 1650.23)
	approx(t, "Fig5 recursion MLE", f5[2][2], 51.72)
	// The headline claim: recursion + early evaluation eliminates 95 %+
	// of the original MLE delay.
	for _, f := range [][3][3]float64{f4, f5} {
		saving := (1 - f[2][2]/f[0][2]) * 100
		if saving < 95 {
			t.Errorf("recursive MLE saving = %.2f%%, paper claims >95%%", saving)
		}
	}
}

func TestTreeMath(t *testing.T) {
	tree := Tree{Depth: 7, Branch: 5, Sigma: 0.6} // σβ = 3 exactly
	if nv := tree.VisibleNodes(); math.Abs(nv-3279) > 1e-6 {
		t.Errorf("VisibleNodes = %v, want 3279", nv)
	}
	if all := tree.AllNodes(); math.Abs(all-97655) > 1e-6 {
		t.Errorf("AllNodes = %v, want 97655", all)
	}
	if q := tree.Queries(MLE); math.Abs(q-3280) > 1e-6 {
		t.Errorf("Queries(MLE) = %v, want 3280", q)
	}
	if nt := tree.TransmittedNodes(MLE, LateEval); math.Abs(nt-5465) > 1e-6 {
		t.Errorf("TransmittedNodes(MLE, late) = %v, want 5465", nt)
	}
}

func TestSavingPct(t *testing.T) {
	base := Estimate{TotalSec: 100}
	opt := Estimate{TotalSec: 5}
	if got := SavingPct(base, opt); math.Abs(got-95) > 1e-9 {
		t.Errorf("SavingPct = %v, want 95", got)
	}
	if got := SavingPct(Estimate{}, opt); got != 0 {
		t.Errorf("SavingPct with zero base = %v, want 0", got)
	}
}

// TestMonotonicity: response time decreases with bandwidth and increases
// with latency, depth and branching — basic sanity of the model.
func TestMonotonicity(t *testing.T) {
	tree := Tree{Depth: 5, Branch: 4, Sigma: 0.6}
	slow := Model{Net: Network{PacketBytes: 4096, LatencySec: 0.15, RateKbps: 256}, Tree: tree}
	fast := Model{Net: Network{PacketBytes: 4096, LatencySec: 0.15, RateKbps: 1024}, Tree: tree}
	for _, a := range Actions {
		for _, s := range Strategies {
			if slow.Price(Knobs{Strategy: s}, a).TotalSec < fast.Price(Knobs{Strategy: s}, a).TotalSec {
				t.Errorf("%v/%v: slower link must not be faster", a, s)
			}
		}
	}
	shallow := Model{Net: slow.Net, Tree: Tree{Depth: 3, Branch: 4, Sigma: 0.6}}
	if shallow.Price(Knobs{Strategy: LateEval}, MLE).TotalSec > slow.Price(Knobs{Strategy: LateEval}, MLE).TotalSec {
		t.Error("shallower tree must not be slower")
	}
}

// TestRecursiveQueryPackets: a query text spanning multiple packets adds
// volume but never extra round trips.
func TestRecursiveQueryPackets(t *testing.T) {
	tree := Tree{Depth: 5, Branch: 4, Sigma: 0.6}
	net := Network{PacketBytes: 4096, LatencySec: 0.15, RateKbps: 256}
	one := Model{Net: net, Tree: tree, RecursiveQueryPackets: 1}.Price(Knobs{Strategy: Recursive}, MLE)
	three := Model{Net: net, Tree: tree, RecursiveQueryPackets: 3}.Price(Knobs{Strategy: Recursive}, MLE)
	if three.Communications != one.Communications {
		t.Errorf("communications changed: %v vs %v", three.Communications, one.Communications)
	}
	if three.TotalSec <= one.TotalSec {
		t.Error("larger query text must cost more transfer time")
	}
	if three.LatencySec != one.LatencySec {
		t.Error("latency share must not depend on query text size")
	}
}
