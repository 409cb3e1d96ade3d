package costmodel

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/lattice.golden from the current model")

// latticePoint is one point of the knob lattice the golden file pins:
// the wire knobs, the cache state (off, cold, warm repeat) and the read
// location (primary, synced replica, replica behind a 64 KiB pull).
type latticePoint struct {
	strategy Strategy
	batching bool
	prepared bool
	cache    string // "off", "cold", "warm"
	compress bool
	replica  string // "no", "sync0", "sync64k"
}

func (p latticePoint) String() string {
	return fmt.Sprintf("%-10v batch=%-5t prep=%-5t cache=%-4s compress=%-5t replica=%-7s",
		p.strategy, p.batching, p.prepared, p.cache, p.compress, p.replica)
}

func latticePoints() []latticePoint {
	var out []latticePoint
	for _, s := range Strategies {
		for _, batching := range []bool{false, true} {
			for _, prepared := range []bool{false, true} {
				for _, cache := range []string{"off", "cold", "warm"} {
					for _, compress := range []bool{false, true} {
						for _, replica := range []string{"no", "sync0", "sync64k"} {
							out = append(out, latticePoint{s, batching, prepared, cache, compress, replica})
						}
					}
				}
			}
		}
	}
	return out
}

// pricePoint prices one lattice point through Price: the point's knobs
// plus the situational Model fields (warm repeat, pending pull) its
// cache and replica dimensions stand for.
func pricePoint(net Network, tree Tree, p latticePoint, a Action) Estimate {
	m := Model{Net: net, Tree: tree, Warm: p.cache == "warm"}
	if p.replica == "sync64k" {
		m.SyncBytes = 64 * 1024
	}
	k := Knobs{Strategy: p.strategy, Batching: p.batching, Prepared: p.prepared,
		Columnar: p.compress, Compress: p.compress, Replica: p.replica != "no"}
	if p.cache != "off" {
		k.CacheEntries = 256
	}
	return m.Price(k, a)
}

func latticeLine(b *strings.Builder, label string, e Estimate) {
	fmt.Fprintf(b, "%s  %.9g %.9g %.9g %.9g\n", label, e.Queries, e.Communications, e.VolumeBytes, e.TotalSec)
}

// TestLatticeGolden pins every predicted number of the knob lattice on
// the paper's three scenarios (slowest WAN) — Queries, Communications,
// VolumeBytes, TotalSec at nine significant digits. The file was
// generated from the ten entry points Price replaced (the commit that
// added it carries that generator); a change to the model that moves
// any number shows up as a diff here.
func TestLatticeGolden(t *testing.T) {
	net := PaperNetworks()[0]
	var b strings.Builder
	for _, tree := range PaperScenarios() {
		for _, a := range Actions {
			for _, p := range latticePoints() {
				latticeLine(&b, fmt.Sprintf("%s  %-6v %v", tree.Name, a, p), pricePoint(net, tree, p, a))
			}
		}
		m := Model{Net: net, Tree: tree, Chain: tree.Depth}
		for _, a := range []Action{WhereUsed, ECO, Report} {
			latticeLine(&b, fmt.Sprintf("%s  %-9v chain=%d", tree.Name, a, m.Chain), m.Price(Knobs{}, a))
		}
		latticeLine(&b, fmt.Sprintf("%s  %-9v chain=%d  %v", tree.Name, WhereUsed, m.Chain, Recursive),
			m.Price(Knobs{Strategy: Recursive}, WhereUsed))
	}
	const path = "testdata/lattice.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with go test ./internal/costmodel -run TestLatticeGolden -update)", err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("lattice has %d lines, golden %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Fatalf("line %d:\n got  %s\n want %s", i+1, got[i], wantLines[i])
		}
	}
}
