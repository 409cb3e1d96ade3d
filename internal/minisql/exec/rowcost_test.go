package exec_test

import (
	"fmt"
	"runtime"
	"testing"

	"pdmtune/internal/core"
	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/workload"
)

// TestRowsCostOnlyTheirOutput: a filtered, projecting, function-calling
// scan allocates for the rows it returns and for nothing else per row —
// column references are bound once per execution, function arguments go
// on the context's stack, and the rows read are neither collected nor
// filtered into a list of their own. Two executions over the same 2,000
// rows, returning 20 and 2,000 of them, may differ by the output rows
// and the doublings of the slice holding them; doubling the table with
// rows the filter drops changes neither the allocations nor the bytes.
// An ungrouped multi-aggregate statement folds every row into its
// accumulators in the same pass: it costs the same over 20 rows as over
// 4,000.
func TestRowsCostOnlyTheirOutput(t *testing.T) {
	const n = 2000
	s := minisql.NewDB().NewSession()
	for _, sql := range []string{
		"CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, opts TEXT, w FLOAT)",
		"CREATE INDEX t_name ON t (name)",
	} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	insert := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := s.Exec("INSERT INTO t VALUES (?, ?, 'b, c', ?)",
				types.NewInt(int64(i)), types.NewText(fmt.Sprint("n", i%7)), types.NewFloat(float64(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert(0, n)
	const q = "SELECT t.id, name, w * 2, COALESCE(name, 'none'), sets_overlap(opts, 'a,b') FROM t " +
		"WHERE t.id < ? AND sets_overlap(t.opts, 'b') AND name IS NOT NULL AND w >= 0"
	const agg = "SELECT COUNT(*), SUM(w), SUM(CASE WHEN name = 'n1' THEN 1 ELSE 0 END), MIN(name), MAX(t.id) FROM t " +
		"WHERE t.id < ? AND w >= 0"
	// cost is the allocations and bytes allocated per execution.
	cost := func(sql string, limit int64, want int) (allocs, bytes float64) {
		const runs = 10
		run := func() {
			res, err := s.Exec(sql, types.NewInt(limit))
			if err != nil || len(res.Rows) != want {
				t.Fatalf("%s: %d rows, error %v; want %d", sql, len(res.Rows), err, want)
			}
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		// Whole allocations per run, as testing.AllocsPerRun counts them.
		return float64((after.Mallocs - before.Mallocs) / runs), float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	few, fewBytes := cost(q, 20, 20)
	if all, _ := cost(q, n, n); all-few > n-20+16 {
		t.Errorf("%.0f allocations for 20 rows returned, %.0f for %d: %.0f more, want at most one per extra row and %d", few, all, n, all-few, 16)
	}
	aggFew, aggFewBytes := cost(agg, 20, 1)
	// same allows the runtime's own odd allocation during a measurement.
	same := func(a, b float64) bool { return a-b < 64 && b-a < 64 }

	insert(n, 2*n) // rows every filter here drops
	if more, moreBytes := cost(q, 20, 20); more != few || !same(moreBytes, fewBytes) {
		t.Errorf("20 rows returned of %d read: %.0f allocations, %.0f B; of %d read: %.0f, %.0f B — rows filtered out must cost nothing",
			n, few, fewBytes, 2*n, more, moreBytes)
	}
	if more, moreBytes := cost(agg, 20, 1); more != aggFew || !same(moreBytes, aggFewBytes) {
		t.Errorf("aggregating 20 of %d rows: %.0f allocations, %.0f B; 20 of %d: %.0f, %.0f B — rows filtered out must cost nothing",
			n, aggFew, aggFewBytes, 2*n, more, moreBytes)
	}
	if all, allBytes := cost(agg, 2*n, 1); all != aggFew || !same(allBytes, aggFewBytes) {
		t.Errorf("aggregating 20 rows: %.0f allocations, %.0f B; %d rows: %.0f, %.0f B — accumulating must cost nothing per row",
			aggFew, aggFewBytes, 2*n, all, allBytes)
	}
}

// TestExpandHitCostsItsPlanOnce: a plan-cache hit of the Expand
// statement reuses what its first execution derived from the text and
// the catalog — the conjunct splits, the tables' columns, the loop's
// columns, the join pairs, the projection and its output names, the
// column references' slots — and the session's scaffolding of the
// execution before, so an Expand of a parent with two children on the
// paper's example allocates its result and nothing else: the result,
// its relation, its rows and the values they are cut from.
func TestExpandHitCostsItsPlanOnce(t *testing.T) {
	s := minisql.NewDB().NewSession()
	if err := workload.LoadPaperExample(s); err != nil {
		t.Fatal(err)
	}
	sql := core.BuildExpandQuery().String()
	parent := types.NewInt(2) // children 4 and 5
	run := func() {
		res, err := s.Exec(sql, parent, parent)
		if err != nil {
			t.Fatalf("Expand(2): %v", err)
		}
		if len(res.Rows) != 2 {
			t.Fatalf("Expand(2): %d rows, want 2", len(res.Rows))
		}
	}
	run() // the miss: parse and plan
	if allocs := testing.AllocsPerRun(20, run); allocs > 8 {
		t.Errorf("a plan-cache hit of Expand costs %.0f allocations, want at most 8", allocs)
	}
}

// TestRecursiveHitCostFollowsOutput: a plan-cache hit of the recursive
// MLE re-runs its recursive branches once per level of the tree, and an
// iteration builds no scaffolding of its own: on a chain of assemblies,
// rooting the MLE 195 levels higher costs at most one allocation per
// extra row returned.
func TestRecursiveHitCostFollowsOutput(t *testing.T) {
	s := minisql.NewDB().NewSession()
	if _, err := s.ExecScript(workload.Schema()); err != nil {
		t.Fatal(err)
	}
	const n = 200 // assemblies 1 … n, each the only child of the one before
	for i := int64(1); i <= n; i++ {
		if _, err := s.Exec("INSERT INTO assy VALUES ('assy', ?, 1, 'a', '+', 'make', 'released', 1.0, FALSE, NULL, 'base', '')",
			types.NewInt(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(1); i < n; i++ {
		if _, err := s.Exec("INSERT INTO link VALUES ('link', ?, ?, ?, 1, 10, 'base')",
			types.NewInt(1000+i), types.NewInt(i), types.NewInt(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	sql := core.BuildRecursiveQuery().String()
	cost := func(root int64) (allocs float64, rows int) {
		run := func() {
			res, err := s.Exec(sql, types.NewInt(root))
			if err != nil {
				t.Fatal(err)
			}
			rows = len(res.Rows)
		}
		run() // the first root's run is the miss
		return testing.AllocsPerRun(10, run), rows
	}
	shallow, few := cost(n - 4)
	deep, many := cost(1)
	if few != 9 || many != 2*n-1 {
		t.Fatalf("the MLE of a chain returns its nodes and links: %d and %d rows, want 9 and %d", few, many, 2*n-1)
	}
	if extra := deep - shallow; extra > float64(many-few) {
		t.Errorf("%d rows cost %.0f allocations, %d rows %.0f: %.0f for %d more rows, want at most one each",
			few, shallow, many, deep, extra, many-few)
	}
}

// BenchmarkExpandHit is one plan-cache hit of the Expand statement on
// the paper's example: a parent with two children.
func BenchmarkExpandHit(b *testing.B) {
	s := minisql.NewDB().NewSession()
	if err := workload.LoadPaperExample(s); err != nil {
		b.Fatal(err)
	}
	sql := core.BuildExpandQuery().String()
	parent := types.NewInt(2)
	if _, err := s.Exec(sql, parent, parent); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := s.Exec(sql, parent, parent); err != nil {
			b.Fatal(err)
		}
	}
}
