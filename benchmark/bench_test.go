package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the driver's view of the benchmark, at the repository
// root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// countMetrics are the end-to-end metrics that are counts made by the
// program: with one seed and one client they repeat exactly.
var countMetrics = []string{"sim_s_per_action", "round_trips_per_action", "wire_kib_per_action"}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, defaultSeconds = %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the program %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the driver's limits", len(perLayer), len(endToEnd))
	}
}

// quickRun is one -quick run of a workload, traced pass included.
func quickRun(t *testing.T, w *workload, seed int64) *outcome {
	t.Helper()
	o, err := runWorkload(context.Background(), w, runConfig{seed: seed, seconds: defaultSeconds, trace: true, quick: true})
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.Name, seed, err)
	}
	if o.failed != 0 {
		t.Fatalf("%s seed %d: %d failed, first: %v", w.Name, seed, o.failed, o.firstErr)
	}
	return o
}

// TestQuickDeterminism runs all four workloads, traced pass and
// correctness checks included: the same seed must give the same op list
// and the same counts, another seed another list, and every metric the
// program emits must be one BENCHMARK.json declares.
func TestQuickDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a, b, c := quickRun(t, w, 1), quickRun(t, w, 1), quickRun(t, w, 2)
			if a.digest != b.digest {
				t.Errorf("same seed, op-list digests %s and %s", a.digest, b.digest)
			}
			if a.digest == c.digest {
				t.Errorf("seeds 1 and 2 give the same op-list digest %s", a.digest)
			}
			for _, name := range countMetrics {
				x, y := a.endToEnd[name], b.endToEnd[name]
				// Two clients interleave differently from run to run, which
				// moves what each replication pull ships; one client repeats
				// exactly.
				tolerance := 0.0
				if w.Clients > 1 {
					tolerance = 0.02
				}
				if math.Abs(x-y) > tolerance*math.Abs(x) {
					t.Errorf("%s: %v then %v with the same seed", name, x, y)
				}
			}
			for _, d := range endToEnd {
				v, ok := a.endToEnd[d.Name]
				if !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("end-to-end %s = %v (present %v): must be a positive number", d.Name, v, ok)
				}
			}
			if len(a.endToEnd) != len(endToEnd) {
				t.Errorf("%d end-to-end values, %d declared", len(a.endToEnd), len(endToEnd))
			}
			for name, v := range a.perLayer {
				if _, ok := findMetric(perLayer, name); !ok {
					t.Errorf("per-layer metric %s is not declared", name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer %s = %v", name, v)
				}
			}
			for _, d := range perLayer {
				if _, ok := a.perLayer[d.Name]; !ok {
					t.Errorf("per-layer metric %s is declared but not emitted", d.Name)
				}
			}
			if a.perLayer["trace.spans"] == 0 || a.perLayer["trace.replay_coverage"] == 0 {
				t.Errorf("traced pass recorded %v spans, replay coverage %v", a.perLayer["trace.spans"], a.perLayer["trace.replay_coverage"])
			}
		})
	}
}

// TestDriverLine checks the contract of the last output line.
func TestDriverLine(t *testing.T) {
	for _, traced := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "replica-write", "--seed", "3", "--seconds", "10", "--trace", traced, "-quick"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
			if _, ok := line[key]; !ok {
				t.Errorf("trace %s: key %q missing", traced, key)
			}
		}
		if len(line) != 4 {
			t.Errorf("trace %s: %d keys, want exactly 4", traced, len(line))
		}
		var metrics map[string]driverValue
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if traced == "1" {
			defs = perLayer
		}
		if len(metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics, want %d", traced, len(metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s = %+v (present %v)", traced, d.Name, m, ok)
			}
		}
	}
}

// TestREADMECoversEveryName keeps the glossary from falling behind the
// program: every workload and metric name must appear in README.md.
func TestREADMECoversEveryName(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)
	for _, name := range workloadNames() {
		if !strings.Contains(readme, "`"+name+"`") {
			t.Errorf("README.md does not mention workload %s", name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !strings.Contains(readme, "`"+d.Name+"`") {
			t.Errorf("README.md does not mention metric %s", d.Name)
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
}

func TestOpGeneration(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		parts := apportion(n, []float64{0.45, 0.35, 0.1, 0.05, 0.05})
		sum := 0
		for _, p := range parts {
			sum += p
		}
		if sum != n {
			t.Errorf("apportion(%d) sums to %d: %v", n, sum, parts)
		}
	}
	levels := [][]int64{{1, 2, 3}, {4, 5, 6, 7, 8, 9}}
	strata := []stratum{{Kind: opMLE, Share: 0.5, Levels: levels}, {Kind: opExpand, Share: 0.5, Levels: levels, Zipf: 1.1}}
	a, b := genOps(strata, 60, 5), genOps(strata, 60, 5)
	if opsDigest([][]op{a}) != opsDigest([][]op{b}) {
		t.Error("genOps is not deterministic")
	}
	// 30 uniform draws over 9 objects in two levels: 10 on the first
	// level, 20 on the second, every object 3 or 4 times.
	count := map[int64]int{}
	for _, o := range a {
		if o.Kind == opMLE {
			count[o.Target]++
		}
	}
	for id := int64(1); id <= 9; id++ {
		if count[id] < 3 || count[id] > 4 {
			t.Errorf("object %d drawn %d times, want 3 or 4", id, count[id])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3, ok := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, %v", q1, q3, ok)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
	if q1, q3, _ := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v, %v", q1, q3)
	}
	if v, pct := tail([]float64{1, 2, 3}, 99); v != 2 || pct != 50 {
		t.Errorf("tail of three samples = %v at %v", v, pct)
	}
}
