package minisql

import (
	"math/rand"
	"strings"
	"testing"

	"pdmtune/internal/minisql/types"
)

// overlapBySets is sets_overlap as it was first written, kept as the
// oracle: split both lists into sets of trimmed, non-blank elements and
// intersect them; a left side without elements overlaps everything.
func overlapBySets(a, b string) bool {
	split := func(s string) map[string]bool {
		out := map[string]bool{}
		for _, part := range strings.Split(s, ",") {
			if p := strings.TrimSpace(part); p != "" {
				out[p] = true
			}
		}
		return out
	}
	left, right := split(a), split(b)
	if len(left) == 0 {
		return true
	}
	for e := range left {
		if right[e] {
			return true
		}
	}
	return false
}

func TestSetsOverlap(t *testing.T) {
	for _, c := range []struct {
		a, b string
		want bool
	}{
		{"sport", "sport", true},
		{"sport", "base", false},
		{"sunroof,sport", "base,sport", true},
		{"sunroof, sport", " sport ,base", true},
		{"  sport\t", "sport", true},
		{"sp ort", "sport", false},
		{"", "sport", true},
		{"", "", true},
		{" , ,", "sport", true},
		{"sport", "", false},
		{"sport", " , ", false},
		{",,sport,,", "sport", true},
		{"sport,sport", "sport", true},
		{"base,base", "sport,sport", false},
		{"a", "ab", false},
		{"ab", "a,b", false},
		{"a,b", "b", true},
		{"Sport", "sport", false},
	} {
		if got := setsOverlap(c.a, c.b); got != c.want || got != overlapBySets(c.a, c.b) {
			t.Errorf("setsOverlap(%q, %q) = %v, want %v (oracle %v)", c.a, c.b, got, c.want, overlapBySets(c.a, c.b))
		}
	}
}

// TestSetsOverlapMatchesSets draws lists from a small alphabet of
// elements, blanks, padding and separators, so that duplicates, empty
// and single-element sets and shared elements all come up often.
func TestSetsOverlapMatchesSets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	parts := []string{"a", "b", "ab", "sport", " ", "\t", "", " a", "b "}
	list := func() string {
		n := rng.Intn(5)
		items := make([]string, n)
		for i := range items {
			items[i] = parts[rng.Intn(len(parts))]
		}
		return strings.Join(items, ",")
	}
	for i := 0; i < 20000; i++ {
		a, b := list(), list()
		if got, want := setsOverlap(a, b), overlapBySets(a, b); got != want {
			t.Fatalf("setsOverlap(%q, %q) = %v, the sets say %v", a, b, got, want)
		}
	}
}

// TestSetsOverlapFunction checks the SQL function around the walk: NULL
// on either side is NULL, and a call on text allocates nothing.
func TestSetsOverlapFunction(t *testing.T) {
	fn := BuiltinFuncs()["sets_overlap"]
	text := types.NewText
	for _, args := range [][]Value{{types.Null, text("a")}, {text("a"), types.Null}, {types.Null, types.Null}} {
		if got, err := fn(args); err != nil || !got.IsNull() {
			t.Errorf("sets_overlap(%v, %v) = %v, %v; want NULL", args[0], args[1], got, err)
		}
	}
	if _, err := fn([]Value{text("a")}); err == nil {
		t.Error("sets_overlap with one argument: no error")
	}
	args := []Value{text("sunroof, cabrio,sport"), text("base, sport")}
	if got, err := fn(args); err != nil || types.Truth(got) != types.True {
		t.Fatalf("sets_overlap(%v, %v) = %v, %v; want TRUE", args[0], args[1], got, err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = fn(args) }); n != 0 {
		t.Errorf("sets_overlap allocates %.1f times per call, want 0", n)
	}
}
