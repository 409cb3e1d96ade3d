package exec_test

import (
	"fmt"
	"testing"

	"pdmtune/internal/core"
	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/workload"
)

// TestSessionAnswersMatchFreshSessions: one session runs, round after
// round, an Expand, the recursive MLE, the Report, a correlated IN
// subquery, a UNION ALL of two cores and an EXPLAIN, and keeps every
// answer of a round until the round is over. Each must equal what a
// fresh session reads for the same statement: whatever one execution
// leaves behind in its session, a later one neither reads nor writes
// into an earlier answer.
func TestSessionAnswersMatchFreshSessions(t *testing.T) {
	db := minisql.NewDB()
	if err := workload.LoadPaperExample(db.NewSession()); err != nil {
		t.Fatal(err)
	}
	one, two := types.NewInt(1), types.NewInt(2)
	stmts := []struct {
		sql    string
		params []minisql.Value
	}{
		{core.BuildExpandQuery().String(), []minisql.Value{two, two}},
		{core.BuildRecursiveQuery().String(), []minisql.Value{one}},
		{core.BuildReportQuery().String(), []minisql.Value{one, one}},
		{"SELECT a.obid, a.name FROM assy a WHERE a.obid IN (SELECT l.right FROM link l WHERE l.left = a.obid - 2 OR l.left = a.obid - 1) ORDER BY 1", nil},
		{"SELECT obid, name FROM assy WHERE obid < ? UNION ALL SELECT obid, name FROM comp WHERE obid > ?", []minisql.Value{types.NewInt(4), types.NewInt(104)}},
		{"EXPLAIN " + core.BuildExpandQuery().String(), []minisql.Value{two, two}},
		{core.BuildExpandQuery().String(), []minisql.Value{one, one}},
	}
	render := func(res *minisql.Result, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprint(res.Cols, res.Rows)
	}
	want := make([]string, len(stmts))
	for i, st := range stmts {
		want[i] = render(db.NewSession().Exec(st.sql, st.params...))
	}
	s := db.NewSession()
	for round := range 3 {
		results := make([]*minisql.Result, len(stmts))
		for i, st := range stmts {
			res, err := s.Exec(st.sql, st.params...)
			if err != nil {
				t.Fatalf("round %d, statement %d: %v", round, i, err)
			}
			results[i] = res
		}
		for i, res := range results {
			if got := render(res, nil); got != want[i] {
				t.Errorf("round %d, statement %d (%.40s…):\n got %s\nwant %s", round, i, stmts[i].sql, got, want[i])
			}
		}
	}
}
