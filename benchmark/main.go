// Command benchmark is the repository's one measuring instrument: it
// builds the data, runs the four PDM workloads in closed loops, checks
// every answer against the generator's ground truth and prints every
// metric by name with its unit. See README.md beside this file.
//
//	bash benchmark/run.sh -seed 1                    all four workloads
//	bash benchmark/run.sh -workload warm-repeat -trace 1
//	bash benchmark/run.sh -quick                     seconds, tiny tree
//	bash benchmark/run.sh -runs 5 -json benchmark/out/a.json
//	bash benchmark/run.sh -compare benchmark/out/a.json benchmark/out/b.json
//
// With -workload the last line of standard output is the driver's JSON
// object (see BENCHMARK.json's contract).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// quickOps is -quick's op-list length per workload.
const quickOps = 50

// tracedShare is the length of the traced pass's op list relative to the
// untraced one.
const tracedShare = 0.25

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool
}

// outcome is one run of one workload.
type outcome struct {
	workload          *workload
	data              dataset
	objects, visible  int
	ops, tracedOps    int
	digest            string
	attempted, failed int
	denied, conflicts int
	firstErr          error
	endToEnd          map[string]float64
	perLayer          map[string]float64 // nil when untraced
	fidelity          []fidelityRow
}

// genScripts generates every client's script: n measured ops in total,
// split evenly over the clients, each client's preceded by its warm-up.
func genScripts(w *workload, t *truth, n int, seed int64) []script {
	out := make([]script, w.Clients)
	for c := range out {
		mix, per, clientSeed := w.mix(t, c), n/w.Clients, seed+int64(c)<<32
		out[c] = script{
			warm:     genOps(mix, int(math.Ceil(warmupShare*float64(per))), clientSeed+1<<40),
			measured: genOps(mix, per, clientSeed),
		}
	}
	return out
}

// allOps flattens scripts into one list per client.
func allOps(scripts []script) [][]op {
	lists := make([][]op, len(scripts))
	for i, s := range scripts {
		lists[i] = s.all()
	}
	return lists
}

// runWorkload performs one run: the set-ups, the untraced pass that
// yields the end-to-end metrics and, with cfg.trace, a traced pass on a
// fresh instance that yields the per-layer ones.
func runWorkload(ctx context.Context, w *workload, cfg runConfig) (*outcome, error) {
	data, n, setups := w.Data, int(math.Round(w.OpsPerSecond*cfg.seconds)), w.Setups
	if cfg.quick {
		data, n, setups = d3b3, quickOps, 1
	}
	if cfg.trace {
		setups = 1 // the traced pass sets up once more
	}
	out := &outcome{workload: w, data: data}
	if w.Procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.Procs))
	}

	var inst *instance
	var setupSecs []float64
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC() // so every set-up starts from the same heap
		}
		var err error
		if inst, err = setUp(ctx, w, data, nil); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, inst.setupSec)
	}
	defer func() { inst.close() }()
	out.objects, out.visible = len(inst.truth.prod.Nodes), inst.truth.visibleTotal()

	sc := genScripts(w, inst.truth, n, cfg.seed)
	out.digest = opsDigest(allOps(sc))
	for _, s := range sc {
		out.ops += len(s.measured)
	}
	crossErr := inst.crossCheck(ctx)
	p := inst.runPass(ctx, sc)
	if crossErr != nil {
		p.fail(crossErr)
	}
	out.endToEnd = endToEndValues(setupSecs, p)
	out.attempted, out.failed, out.firstErr = p.actions, p.failed, p.firstErr
	out.denied, out.conflicts = p.denied, p.conflicts
	if !cfg.trace {
		return out, nil
	}

	fid, err := inst.fidelity(ctx)
	if err != nil {
		return nil, err
	}
	out.fidelity = fid
	loadSec := inst.loadSec
	inst.close()
	inst = nil
	runtime.GC()

	tr := newTracer()
	if inst, err = setUp(ctx, w, data, tr); err != nil {
		return nil, err
	}
	tsc := genScripts(w, inst.truth, int(math.Round(tracedShare*float64(n))), cfg.seed)
	for _, s := range tsc {
		out.tracedOps += len(s.measured)
	}
	tp := inst.runPass(ctx, tsc)
	out.failed += tp.failed
	if out.firstErr == nil {
		out.firstErr = tp.firstErr
	}
	rp := inst.replay(allOps(tsc))
	out.perLayer = perLayerValues(layerInputs{
		untraced: p, traced: tp, spans: tr.spans, replay: rp,
		fidelity: fid, objects: out.objects, loadSec: loadSec,
	})
	path := filepath.Join(outDir(), "trace-"+w.Name+".json")
	if err := writeJSON(path, traceFile{header: newHeader(cfg), Workload: w.Name, Spans: tr.spans}); err != nil {
		return nil, fmt.Errorf("write %s: %w", path, err)
	}
	return out, nil
}

func printMetrics(w io.Writer, title string, defs []metricDef, values map[string]float64) {
	fmt.Fprintf(w, "   %s\n", title)
	for _, d := range defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  %s is better, bound %g%%", d.Better, 100*d.Bound)
		}
		fmt.Fprintf(w, "     %-44s %16.6g %-6s%s\n", d.Name, values[d.Name], d.Unit, bound)
	}
}

func (o *outcome) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  (%s: %d objects, %d visible; %d client(s), closed loop; %d measured ops, digest %s)\n",
		o.workload.Name, o.data.Name, o.objects, o.visible, o.workload.Clients, o.ops, o.digest)
	fmt.Fprintf(w, "   why: %s\n", o.workload.Why)
	printMetrics(w, "end-to-end, from the untraced pass:", endToEnd, o.endToEnd)
	if o.perLayer != nil {
		printMetrics(w, fmt.Sprintf("per layer, from the untraced pass's counters and a traced pass of %d ops:", o.tracedOps), perLayer, o.perLayer)
		fmt.Fprintf(w, "   fidelity, full-root action: costmodel predicted / netsim charged / wall measured\n")
		for _, f := range o.fidelity {
			fmt.Fprintf(w, "     %-8s %10.3f s / %10.3f s / %10.3f ms   model error %.1f%%\n", f.action, f.predicted, f.simulated, f.wallMs, f.errPct())
		}
	}
	fmt.Fprintf(w, "   outcomes: %d actions attempted, %d failed, %d check-outs refused as scripted, %d first-wins conflicts\n",
		o.attempted, o.failed, o.denied, o.conflicts)
	if o.firstErr != nil {
		fmt.Fprintf(w, "   FIRST FAILURE: %v\n", o.firstErr)
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the exit, for the tests. Exit codes: 0 all
// correct, 1 a failed action, check or regression, 2 the benchmark
// itself could not run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload ("+fmt.Sprint(workloadNames())+") and end with the driver's JSON line; default all four")
	seed := fs.Int64("seed", 1, "seed of the op lists (the data sets are fixed)")
	seconds := fs.Float64("seconds", defaultSeconds, "sizes the op lists: about this long a measured phase on the 2-core sandbox")
	trace := fs.Int("trace", 0, "1 adds the traced pass and the per-layer metrics")
	quick := fs.Bool("quick", false, "tiny tree, ~50 ops per workload, traced pass included: a smoke test in seconds")
	runs := fs.Int("runs", 1, "repeat every workload this many times (for -json)")
	jsonPath := fs.String("json", "", "write per-run values and medians to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two -json files given as arguments; exit 1 on a regression")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare a.json b.json")
			return 2
		}
		var files [2]*resultFile
		for i := range files {
			f, err := readResult(fs.Arg(i))
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			files[i] = f
		}
		if compareResults(stdout, files[0], files[1]) > 0 {
			return 1
		}
		return 0
	}

	selected := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "unknown workload %q, have %v\n", *name, workloadNames())
			return 2
		}
		selected = []*workload{w}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0 || *quick, quick: *quick}
	ctx := context.Background()
	file := &resultFile{header: newHeader(cfg), Workloads: map[string]*workloadResult{}}
	fmt.Fprintf(stdout, "pdmtune benchmark: seed %d, %g s, %d CPUs, %s, commit %s\n",
		cfg.seed, cfg.seconds, file.Nproc, file.GoVersion, file.Commit)
	failed := 0
	var last *outcome
	for _, w := range selected {
		for r := 0; r < *runs; r++ {
			o, err := runWorkload(ctx, w, cfg)
			if err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", w.Name, err)
				return 2
			}
			o.print(stdout)
			file.add(o)
			failed += o.failed
			last = o
		}
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, file); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if *name != "" {
		line, err := json.Marshal(newDriverLine(last, *trace != 0))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if failed > 0 {
		return 1
	}
	return 0
}
