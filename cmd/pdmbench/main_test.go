package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"pdmtune/internal/costmodel"
)

// TestEveryModeEmitsRecords runs the whole registry on a small tree and
// checks the contract between modes and dispatcher: at least one record,
// labelled with the mode, unchanged by a JSON round trip (so Extra holds
// only float64/string/bool), and rendering to the same non-empty text
// before and after it.
func TestEveryModeEmitsRecords(t *testing.T) {
	e := &env{
		scenarios: []costmodel.Tree{{Name: "δ=2, β=3, σ=1", Depth: 2, Branch: 3, Sigma: 1}},
		sites:     2, staleness: -1, subscribe: 0.5,
		users: 4, pool: 2, ops: 6,
	}
	if err := e.validate(); err != nil {
		t.Fatal(err)
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			recs, err := m.run(e)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				t.Fatal("no records")
			}
			for _, r := range recs {
				if r.Mode != m.name || r.Scenario == "" || r.Config == "" {
					t.Errorf("record not labelled: %+v", r)
				}
			}
			data, err := json.Marshal(recs)
			if err != nil {
				t.Fatal(err)
			}
			var back []record
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(recs, back) {
				t.Errorf("records changed in a JSON round trip:\n got %+v\nwant %+v", back, recs)
			}
			var direct, decoded bytes.Buffer
			m.text(&direct, recs)
			m.text(&decoded, back)
			if direct.Len() == 0 || direct.String() != decoded.String() {
				t.Errorf("text from decoded records differs or is empty:\n%s\nvs\n%s", decoded.String(), direct.String())
			}
		})
	}
}

// TestExactlyOneMode: zero modes, two modes, an unknown mode and a flag
// the mode does not read are usage errors for every mode, reported on
// stderr with nothing on stdout.
func TestExactlyOneMode(t *testing.T) {
	for _, args := range [][]string{
		{}, {"-json"}, {"users", "sites"}, {"-users", "5", "sites", "-sites", "3", "users"},
		{"bogus"}, {"all", "tables"}, {"tables", "-users", "5"}, {"sites", "-subscribe", "2"}, {"-nosuchflag", "tables"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("pdmbench %v: exit %d, want 2", args, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "usage: pdmbench <mode>") {
			t.Errorf("pdmbench %v: stdout %q, stderr %q", args, stdout.String(), stderr.String())
		}
	}
}

// TestJSONIsOneArray: the dispatcher, not the mode, encodes — flags may
// stand on either side of the mode.
func TestJSONIsOneArray(t *testing.T) {
	for _, args := range [][]string{{"-json", "checkout"}, {"checkout", "-json"}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("pdmbench %v: exit %d: %s", args, code, stderr.String())
		}
		var recs []record
		if err := json.Unmarshal(stdout.Bytes(), &recs); err != nil {
			t.Fatal(err)
		}
		if len(recs) != 3 || recs[2].Mode != "checkout" || recs[2].Metrics.RoundTrips != 1 {
			t.Errorf("pdmbench %v: %+v", args, recs)
		}
	}
}

// TestPaperTablesAndFiguresGolden pins the paper's numbers: `pdmbench
// tables` followed by `pdmbench figure` prints byte for byte what the
// flag-driven pdmbench printed without arguments before the registry
// rewrite (Tables 2-4, Figures 4-5).
func TestPaperTablesAndFiguresGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/tables_figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	for _, name := range []string{"tables", "figure"} {
		if code := run([]string{name}, &stdout, &stderr); code != 0 {
			t.Fatalf("pdmbench %s: exit %d: %s", name, code, stderr.String())
		}
	}
	got, wantLines := strings.Split(stdout.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		if i >= len(got) || i >= len(wantLines) || got[i] != wantLines[i] {
			t.Fatalf("line %d differs from the golden output (got %d lines, want %d):\n got %q\nwant %q",
				i+1, len(got), len(wantLines), at(got, i), at(wantLines, i))
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<missing>"
}
