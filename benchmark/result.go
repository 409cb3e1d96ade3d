package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// schemaVersion versions the result and trace files.
const schemaVersion = 1

// outDir receives trace files (and is the conventional place for result
// files); git ignores it. It is benchmark/out whether the program runs
// from the repository root (run.sh) or from its own directory (go test).
func outDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return "benchmark/out"
	}
	return "out"
}

// header identifies what produced a result or trace file.
type header struct {
	Schema    int     `json:"schema"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Quick     bool    `json:"quick"`
	Nproc     int     `json:"nproc"`
	GoVersion string  `json:"go"`
	Commit    string  `json:"commit"`
}

func newHeader(cfg runConfig) header {
	return header{
		Schema: schemaVersion, Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick,
		Nproc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit(),
	}
}

// commit names the checked-out commit, or "unknown" outside a git
// checkout (the driver's checkouts are not repositories).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// resultFile is what -json writes and -compare reads: per workload and
// metric, the value of every run and their median.
type resultFile struct {
	header
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	OpsDigest string                 `json:"ops_digest"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]*metricRuns `json:"metrics"`
}

type metricRuns struct {
	Unit   string    `json:"unit"`
	Runs   []float64 `json:"runs"`
	Median float64   `json:"median"`
}

// add folds one run's outcome into the file.
func (f *resultFile) add(o *outcome) {
	w := f.Workloads[o.workload.Name]
	if w == nil {
		w = &workloadResult{OpsDigest: o.digest, Metrics: map[string]*metricRuns{}}
		f.Workloads[o.workload.Name] = w
	}
	w.Attempted += o.attempted
	w.Failed += o.failed
	record := func(defs []metricDef, values map[string]float64) {
		for _, d := range defs {
			v, ok := values[d.Name]
			if !ok {
				continue
			}
			m := w.Metrics[d.Name]
			if m == nil {
				m = &metricRuns{Unit: d.Unit}
				w.Metrics[d.Name] = m
			}
			m.Runs = append(m.Runs, v)
			m.Median = median(m.Runs)
		}
	}
	record(endToEnd, o.endToEnd)
	record(perLayer, o.perLayer)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %d, this benchmark reads schema %d", path, f.Schema, schemaVersion)
	}
	return &f, nil
}

// traceFile is the span dump of one traced pass.
type traceFile struct {
	header
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

// driverLine is the one JSON object the driver reads from the last line
// of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newDriverLine(o *outcome, traced bool) driverLine {
	defs, values := endToEnd, o.endToEnd
	if traced {
		defs, values = perLayer, o.perLayer
	}
	line := driverLine{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = driverValue{Value: values[d.Name], Unit: d.Unit}
	}
	return line
}
