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

// pricePoint prices one lattice point from the parent's ten entry
// points: the wire knobs through coldRead (Predict / PredictBatched /
// PredictBatchedPrepared + the compression shrink), a warm repeat
// through PredictCached, a replica read on the LAN profile with
// PredictReplicated's sync exchange on top.
func pricePoint(net Network, tree Tree, p latticePoint, a Action) Estimate {
	readNet := net
	if p.replica != "no" {
		readNet = LANNetwork()
	}
	k := Knobs{Strategy: p.strategy, Batching: p.batching, Prepared: p.prepared, Compress: p.compress}
	if p.cache != "off" {
		k.CacheEntries = 256
	}
	var est Estimate
	if p.cache == "warm" && a != Query {
		est = Model{Net: readNet, Tree: tree}.PredictCached(a, p.strategy, true)
	} else {
		est = coldRead(readNet, k, Workload{Tree: tree, Action: a})
	}
	if p.replica == "sync64k" {
		vol := net.PacketBytes + 64*1024 + net.PacketBytes/2
		est.Communications += 2
		est.VolumeBytes += vol
		est.LatencySec += 2 * net.LatencySec
		est.TransferSec += vol * 8 / (net.RateKbps * 1024)
		est.TotalSec = est.LatencySec + est.TransferSec
	}
	return est
}

func priceEC(m Model, a Action, chain, rows int) Estimate {
	switch a {
	case WhereUsed:
		return m.PredictWhereUsed(chain)
	case ECO:
		return m.PredictECO(chain)
	}
	return m.PredictReport(rows)
}

func latticeLine(b *strings.Builder, label string, e Estimate) {
	fmt.Fprintf(b, "%s  %.9g %.9g %.9g %.9g\n", label, e.Queries, e.Communications, e.VolumeBytes, e.TotalSec)
}

// TestLatticeGolden pins every predicted number of the knob lattice on
// the paper's three scenarios (slowest WAN) — Queries, Communications,
// VolumeBytes, TotalSec at nine significant digits. The file was
// generated from the ten pre-refactor entry points; a change to the
// model that moves any of them shows up as a diff here.
func TestLatticeGolden(t *testing.T) {
	net := PaperNetworks()[0]
	var b strings.Builder
	for _, tree := range PaperScenarios() {
		for _, a := range Actions {
			for _, p := range latticePoints() {
				latticeLine(&b, fmt.Sprintf("%s  %-6v %v", tree.Name, a, p), pricePoint(net, tree, p, a))
			}
		}
		chain, rows := tree.Depth, int(tree.AllNodes())+1
		for _, a := range []Action{WhereUsed, ECO, Report} {
			latticeLine(&b, fmt.Sprintf("%s  %-9v chain=%d rows=%d", tree.Name, a, chain, rows),
				priceEC(Model{Net: net, Tree: tree}, a, chain, rows))
		}
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

// TestLatticePointsMatchEntryPoints ties the lattice's composition back
// to the public entry points where one exists for the point.
func TestLatticePointsMatchEntryPoints(t *testing.T) {
	net := PaperNetworks()[0]
	for _, tree := range PaperScenarios() {
		m := Model{Net: net, Tree: tree}
		for _, a := range Actions {
			for _, s := range Strategies {
				plain := latticePoint{strategy: s, cache: "off", replica: "no"}
				check := func(name string, p latticePoint, want Estimate) {
					t.Helper()
					if got := pricePoint(net, tree, p, a); got != want {
						t.Errorf("%s %v/%v %s: lattice %+v != entry point %+v", tree.Name, a, s, name, got, want)
					}
				}
				check("Predict", plain, m.Predict(a, s))
				p := plain
				p.batching = true
				check("PredictBatched", p, m.PredictBatched(a, s))
				p.compress = true
				check("PredictCompressed", p, m.PredictCompressed(a, s, DefaultCompressionRatio))
				p.compress, p.prepared = false, true
				check("PredictBatchedPrepared", p, m.PredictBatchedPrepared(a, s))
				p.prepared, p.cache = false, "cold"
				check("PredictCached cold", p, m.PredictCached(a, s, false))
				p.cache = "warm"
				check("PredictCached warm", p, m.PredictCached(a, s, true))
				p = plain
				p.replica = "sync0"
				check("PredictReplicated 0", p, m.PredictReplicated(a, s, LANNetwork(), 0))
				p.replica = "sync64k"
				check("PredictReplicated 64k", p, m.PredictReplicated(a, s, LANNetwork(), 64*1024))
			}
		}
	}
}
