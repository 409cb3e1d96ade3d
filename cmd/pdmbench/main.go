// Command pdmbench regenerates every table and figure of the paper's
// evaluation section, both analytically (the Section 2 model — matching
// the printed numbers) and by simulation (the full PDM system: real SQL
// through the wire protocol across the simulated WAN).
//
// Usage:
//
//	pdmbench <mode> [flags]
//
// Exactly one mode is named per run ("all" runs every mode in registry
// order). Every mode produces records of one schema — mode, scenario,
// config, metrics (netsim.Metrics as charged by the meters),
// predicted_sec (the cost model's estimate, where there is one) and
// extra (the mode's own numbers) — which the dispatcher renders as text
// or, with -json, as one JSON array. `pdmbench` without a mode lists the
// modes and the flags each one reads; a flag the named mode does not
// read is a usage error, not a silent no-op.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pdmtune/internal/costmodel"
	"pdmtune/internal/netsim"
)

// record is the one schema every mode emits. Extra holds only float64,
// string and bool values, so a record survives a JSON round trip
// unchanged and the text renderers can read decoded records too.
type record struct {
	Mode         string         `json:"mode"`
	Scenario     string         `json:"scenario"`
	Config       string         `json:"config"`
	Metrics      netsim.Metrics `json:"metrics"`
	PredictedSec float64        `json:"predicted_sec"`
	Extra        kv             `json:"extra,omitempty"`
}

type kv = map[string]any

func (r record) num(key string) float64 { v, _ := r.Extra[key].(float64); return v }
func (r record) str(key string) string  { v, _ := r.Extra[key].(string); return v }

// cut splits recs after the leading run of records that share the first
// record's key — how the text renderers recover the grouping (per
// table, per scenario, per site) of a flat record list.
func cut(recs []record, key func(record) any) (run, rest []record) {
	n := 1
	for n < len(recs) && key(recs[n]) == key(recs[0]) {
		n++
	}
	return recs[:n], recs[n:]
}

func byScenario(r record) any { return r.Scenario }

func byExtra(key string) func(record) any {
	return func(r record) any { return r.Extra[key] }
}

// env is what a mode runs against: the scenario list (the paper's three
// trees; the tests substitute a small one) and the values of the flags
// it declares in mode.params.
type env struct {
	scenarios []costmodel.Tree

	sites            int
	staleness        time.Duration
	subscribe        float64
	users, pool, ops int
}

func (e *env) validate() error {
	switch {
	case e.subscribe < 0 || e.subscribe > 1:
		return fmt.Errorf("-subscribe must be in [0, 1]")
	case e.sites < 1 || e.users < 1 || e.ops < 1 || e.pool < 1:
		return fmt.Errorf("-sites, -users, -ops and -pool must be positive")
	}
	return nil
}

// mode is one experiment: run measures and returns records, text renders
// them for a terminal. Neither decides about JSON — the dispatcher does.
type mode struct {
	name   string
	about  string
	params []string // the flags run reads
	run    func(e *env) ([]record, error)
	text   func(w io.Writer, recs []record)
}

var modes = []mode{
	{"tables", "Tables 2-4, analytic model vs the paper's printed numbers", nil, runTables, textTables},
	{"figure", "Figures 4-5 as ASCII bars (analytic)", nil, runFigures, textFigures},
	{"simulate", "wire-level simulation of every action and strategy vs the model", nil, runSimulate, textSimulate},
	{"levers", "batch / prepared / compress / cache: an MLE with the lever off and on", nil, runLevers, textLevers},
	{"checkout", "Section 6: check-out implementations compared", nil, runCheckout, textCheckout},
	{"sites", "replica sites: LAN reads vs WAN sync volume, optionally partial", []string{"sites", "staleness", "subscribe"}, runSites, textSites},
	{"whereused", "where-used inverse traversal vs the model", nil, runWhereUsed, textWhereUsed},
	{"eco", "ECO propagation, incl. check-out conflicts, vs the model", nil, runECO, textECO},
	{"report", "bulk report, one aggregate statement, vs the model", nil, runReport, textReport},
	{"users", "N concurrent sessions on the real engine, checked against a serial replay", []string{"users", "pool", "ops"}, runUsers, textUsers},
	{"ablate", "packet-size / σ / accounting-mode ablations", nil, runAblate, textAblate},
	{"advise", "auto-tuning advisor: observe, classify, pick, re-measure", nil, runAdvise, textAdvise},
	{"failover", "kill the primary under write traffic, measure the promotion", nil, runFailover, textFailover},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool: parse, pick exactly one mode, run it, render.
// It returns the exit code — 2 for a usage error, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	e := &env{scenarios: costmodel.PaperScenarios()}
	fs := flag.NewFlagSet("pdmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the records as one JSON array instead of text")
	fs.IntVar(&e.sites, "sites", 2, "replica sites per scenario")
	fs.DurationVar(&e.staleness, "staleness", -1, "staleness bound of the per-site sessions (-1: read your own site)")
	fs.Float64Var(&e.subscribe, "subscribe", 0, "subscribe each site to this fraction of the root's subtrees (0: full replication)")
	fs.IntVar(&e.users, "users", 20, "concurrent sessions")
	fs.IntVar(&e.pool, "pool", 32, "connection-pool size shared by the sessions")
	fs.IntVar(&e.ops, "ops", 20, "operations per user")
	fs.Usage = func() { usage(stderr, fs) }

	// Flags may stand before or after the mode; every non-flag argument
	// is a mode name, and there must be exactly one.
	var names []string
	for len(args) > 0 {
		if err := fs.Parse(args); err != nil {
			return 2
		}
		if args = fs.Args(); len(args) > 0 {
			names, args = append(names, args[0]), args[1:]
		}
	}
	usageErr := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "pdmbench: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	if len(names) != 1 {
		return usageErr("want exactly one mode, got %d %v", len(names), names)
	}
	selected := modes
	if names[0] != "all" {
		selected = nil
		for _, m := range modes {
			if m.name == names[0] {
				selected = []mode{m}
			}
		}
		if selected == nil {
			return usageErr("unknown mode %q", names[0])
		}
	}
	reads := map[string]bool{"json": true}
	for _, m := range selected {
		for _, p := range m.params {
			reads[p] = true
		}
	}
	var stray []string
	fs.Visit(func(f *flag.Flag) {
		if !reads[f.Name] {
			stray = append(stray, "-"+f.Name)
		}
	})
	if len(stray) > 0 {
		return usageErr("mode %s does not read %s", names[0], strings.Join(stray, ", "))
	}
	if err := e.validate(); err != nil {
		return usageErr("%v", err)
	}

	var all []record
	for _, m := range selected {
		recs, err := m.run(e)
		if err != nil {
			fmt.Fprintf(stderr, "pdmbench: %s: %v\n", m.name, err)
			return 1
		}
		if *jsonOut {
			all = append(all, recs...)
		} else {
			m.text(stdout, recs)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(stderr, "pdmbench:", err)
			return 1
		}
	}
	return 0
}

func usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprintln(w, "usage: pdmbench <mode> [flags]")
	fmt.Fprintln(w, "\nmodes:")
	for _, m := range modes {
		line := fmt.Sprintf("  %-10s %s", m.name, m.about)
		if len(m.params) > 0 {
			line += " [-" + strings.Join(m.params, " -") + "]"
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  %-10s every mode above, in that order\n", "all")
	fmt.Fprintln(w, "\nflags:")
	fs.PrintDefaults()
}
