package main

import (
	"bytes"
	"strings"
	"testing"
)

// synthetic builds a result file with one workload whose metrics have
// the given runs.
func synthetic(failed int, runs map[string][]float64) *resultFile {
	w := &workloadResult{OpsDigest: "d", Attempted: 100, Failed: failed, Metrics: map[string]*metricRuns{}}
	for name, r := range runs {
		w.Metrics[name] = &metricRuns{Unit: "x", Runs: r, Median: median(r)}
	}
	return &resultFile{header: header{Schema: schemaVersion}, Workloads: map[string]*workloadResult{"warm-repeat": w}}
}

func TestCompare(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v} }
	base := map[string][]float64{
		"actions_per_s":    steady(100), // higher is better, bound 25%
		"mle_p50_ms":       steady(10),  // lower is better, bound 25%
		"sim_s_per_action": steady(2),   // lower is better, bound 5%
	}
	cases := []struct {
		name        string
		failed      int
		change      map[string][]float64
		regressions int
		want        map[string]verdict
	}{
		{"same", 0, nil, 0, map[string]verdict{"actions_per_s": verdictOK, "mle_p50_ms": verdictOK, "sim_s_per_action": verdictOK}},
		{"slower throughput", 0, map[string][]float64{"actions_per_s": steady(70)}, 1, map[string]verdict{"actions_per_s": verdictRegression}},
		{"faster throughput", 0, map[string][]float64{"actions_per_s": steady(140)}, 0, map[string]verdict{"actions_per_s": verdictImproved}},
		{"within the bound", 0, map[string][]float64{"mle_p50_ms": steady(12)}, 0, map[string]verdict{"mle_p50_ms": verdictOK}},
		{"count past its bound", 0, map[string][]float64{"sim_s_per_action": steady(2.2)}, 1, map[string]verdict{"sim_s_per_action": verdictRegression}},
		{"noisy", 0, map[string][]float64{"mle_p50_ms": {6, 10, 14, 18, 22}}, 0, map[string]verdict{"mle_p50_ms": verdictUnresolved}},
		{"more failures", 3, nil, 1, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runs := map[string][]float64{}
			for k, v := range base {
				runs[k] = v
			}
			for k, v := range tc.change {
				runs[k] = v
			}
			a, b := synthetic(0, base), synthetic(tc.failed, runs)
			var out bytes.Buffer
			if got := compareResults(&out, a, b); got != tc.regressions {
				t.Errorf("%d regressions, want %d\n%s", got, tc.regressions, out.String())
			}
			for name, want := range tc.want {
				d, _ := findMetric(endToEnd, name)
				if _, _, v := judge(d, a.Workloads["warm-repeat"].Metrics[name], b.Workloads["warm-repeat"].Metrics[name]); v != want {
					t.Errorf("%s: verdict %s, want %s", name, v, want)
				}
			}
			if tc.failed > 0 && !strings.Contains(out.String(), "failed/attempted") {
				t.Errorf("a higher failure ratio is not reported:\n%s", out.String())
			}
		})
	}
}
