package exec_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/parser"
)

// TestPlanHitMatchesFirstExecution runs the reference net's generated
// statements again on the plan their first execution published. Each
// runs twice through the plan cache of one database, the second run a
// hit that re-plans nothing, and then as one held AST alternating
// between the index-free and the indexed database, whose tables are
// never the ones planned, so every run re-plans. Each run must read
// exactly what the first execution on its database read, or fail with
// the same error.
func TestPlanHitMatchesFirstExecution(t *testing.T) {
	result := func(res *minisql.Result, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		var sb strings.Builder
		sb.WriteString(strings.Join(res.Cols, ","))
		for _, row := range res.Rows {
			sb.WriteString("\n" + rowKey(row))
		}
		return sb.String()
	}
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := newFixture(t, rng, hostileDomains)
		g := &gen{rng: rng, domains: f.domains}
		for i := 0; i < 24; i++ {
			g.params = nil
			sql, _ := g.statement()
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("seed %d, statement %d\n  statement: %s\n  params: %v\n  %s", seed, i, sql, g.params, fmt.Sprintf(format, args...))
			}
			sides := []*minisql.Session{f.plain, f.indexed}
			first := make([]string, len(sides))
			for j, s := range sides {
				first[j] = result(s.Exec(sql, g.params...))
				if again := result(s.Exec(sql, g.params...)); again != first[j] {
					fail("plan-cache hit read\n%s\nfirst execution\n%s", again, first[j])
				}
			}
			held, err := parser.Parse(sql)
			if err != nil {
				fail("%v", err)
			}
			for k := range 4 {
				j := k % len(sides)
				if got := result(sides[j].ExecStmt(held, g.params...)); got != first[j] {
					fail("held AST, run %d, read\n%s\nfirst execution\n%s", k, got, first[j])
				}
			}
		}
	}
}
