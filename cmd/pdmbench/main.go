// Command pdmbench reproduces the paper's evaluation: Tables 2-4 and
// Figures 4-5 from the Section 2 cost model (matching the printed
// numbers), and the Section 6 check-out comparison on the simulated
// system (real SQL through the wire protocol across the simulated WAN).
//
// Usage:
//
//	pdmbench <mode> [-json]
//
// Exactly one mode is named per run ("all" runs every mode in registry
// order). Every mode produces records of one schema — mode, scenario,
// config, metrics (netsim.Metrics as charged by the meters),
// predicted_sec (the cost model's estimate, where there is one) and
// extra (the mode's own numbers) — which the dispatcher renders as text
// or, with -json, as one JSON array. `pdmbench` without a mode lists the
// modes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

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
// table, per network, per strategy) of a flat record list.
func cut(recs []record, key func(record) any) (run, rest []record) {
	n := 1
	for n < len(recs) && key(recs[n]) == key(recs[0]) {
		n++
	}
	return recs[:n], recs[n:]
}

func byExtra(key string) func(record) any {
	return func(r record) any { return r.Extra[key] }
}

// mode is one experiment: run measures and returns records, text renders
// them for a terminal. Neither decides about JSON — the dispatcher does.
type mode struct {
	name  string
	about string
	run   func() ([]record, error)
	text  func(w io.Writer, recs []record)
}

var modes = []mode{
	{"tables", "Tables 2-4, analytic model vs the paper's printed numbers", runTables, textTables},
	{"figure", "Figures 4-5 as ASCII bars (analytic)", runFigures, textFigures},
	{"checkout", "Section 6: check-out implementations compared", runCheckout, textCheckout},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole tool: parse, pick exactly one mode, run it, render.
// It returns the exit code — 2 for a usage error, 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit the records as one JSON array instead of text")
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
	var all []record
	for _, m := range selected {
		recs, err := m.run()
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
	fmt.Fprintln(w, "usage: pdmbench <mode> [-json]")
	fmt.Fprintln(w, "\nmodes:")
	for _, m := range modes {
		fmt.Fprintf(w, "  %-10s %s\n", m.name, m.about)
	}
	fmt.Fprintf(w, "  %-10s every mode above, in that order\n", "all")
	fmt.Fprintln(w, "\nflags:")
	fs.PrintDefaults()
}
