package exec_test

import (
	"fmt"
	"testing"

	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/types"
)

// TestRowsCostOnlyTheirOutput: a filtered, projecting, function-calling
// scan allocates for the rows it returns and for nothing else per row —
// column references are bound once per execution and function
// arguments go on the context's stack. Two executions over the same
// 2,000 rows, returning 20 and 2,000 of them, may differ by the output
// rows and the doublings of the slice holding them.
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
	for i := 0; i < n; i++ {
		if _, err := s.Exec("INSERT INTO t VALUES (?, ?, 'b, c', ?)",
			types.NewInt(int64(i)), types.NewText(fmt.Sprint("n", i%7)), types.NewFloat(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT t.id, name, w * 2, COALESCE(name, 'none'), sets_overlap(opts, 'a,b') FROM t " +
		"WHERE t.id < ? AND sets_overlap(t.opts, 'b') AND name IS NOT NULL AND w >= 0"
	allocs := func(limit int64) float64 {
		return testing.AllocsPerRun(10, func() {
			res, err := s.Exec(q, types.NewInt(limit))
			if err != nil || int64(len(res.Rows)) != limit {
				t.Fatalf("%d rows, error %v; want %d", len(res.Rows), err, limit)
			}
		})
	}
	few, all := allocs(20), allocs(n)
	if extra := all - few; extra > n-20+16 {
		t.Errorf("%.0f allocations for 20 rows returned, %.0f for %d: %.0f more, want at most one per extra row and %d", few, all, n, extra, 16)
	}
}
