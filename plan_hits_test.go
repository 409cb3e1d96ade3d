package pdmtune_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pdmtune/internal/core"
	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/wire"
	"pdmtune/internal/workload"
)

// paperDB is the paper's example tree in a fresh database.
func paperDB(t *testing.T) *minisql.DB {
	t.Helper()
	db := minisql.NewDB()
	if err := workload.LoadPaperExample(db.NewSession()); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestBatchedExpandsMatchSoloRuns: a batch of Expand statements on one
// connection, one per node of the paper's example, answers each
// statement with the rows a solo execution on a fresh session reads —
// in the plain and in the columnar encoding. The server encodes the
// batch only after its last statement ran, so an answer that shared
// memory with a later statement's execution would read that one's rows.
func TestBatchedExpandsMatchSoloRuns(t *testing.T) {
	db := paperDB(t)
	expand := core.BuildExpandQuery().String()
	parents := []int64{1, 2, 3, 4, 5, 101, 2, 1}
	want := make([]string, len(parents))
	reqs := make([]*wire.Request, len(parents))
	for i, id := range parents {
		p := types.NewInt(id)
		res, err := db.NewSession().Exec(expand, p, p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(res.Rows)
		reqs[i] = &wire.Request{SQL: expand, Params: []types.Value{p, p}}
	}
	srv := wire.NewServer(db)
	for _, columnar := range []bool{false, true} {
		client := wire.NewClient(&wire.MeteredChannel{Conn: srv.NewConn()})
		ctx := context.Background()
		if _, err := client.Negotiate(ctx, wire.Caps{Columnar: columnar}); err != nil {
			t.Fatal(err)
		}
		for round := range 3 {
			resps, err := client.ExecBatch(ctx, reqs)
			if err != nil {
				t.Fatal(err)
			}
			for i, resp := range resps {
				if got := fmt.Sprint(resp.Rows); got != want[i] {
					t.Errorf("columnar=%v, round %d, Expand(%d): got %s, want %s", columnar, round, parents[i], got, want[i])
				}
			}
		}
	}
}

// TestConcurrentPlanHits: 16 sessions run the Expand, the recursive MLE
// and the Report, each a plan-cache hit on one shared AST, over every
// node of the paper's example at once, and each answer must equal a
// solo execution's. Run with -race.
func TestConcurrentPlanHits(t *testing.T) {
	db := paperDB(t)
	texts := []string{core.BuildExpandQuery().String(), core.BuildRecursiveQuery().String(), core.BuildReportQuery().String()}
	ids := []int64{1, 2, 3, 4, 5, 101}
	params := func(text string, id int64) []minisql.Value {
		ps := make([]minisql.Value, strings.Count(text, "?"))
		for i := range ps {
			ps[i] = types.NewInt(id)
		}
		return ps
	}
	want := map[string]string{}
	warm := db.NewSession()
	for _, text := range texts {
		for _, id := range ids {
			res, err := warm.Exec(text, params(text, id)...)
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprint(text, id)] = fmt.Sprint(res.Cols, res.Rows)
		}
	}
	const sessions, rounds = 16, 10
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			<-start
			for r := range rounds {
				text, id := texts[(w+r)%len(texts)], ids[(w*rounds+r)%len(ids)]
				res, err := s.Exec(text, params(text, id)...)
				if err != nil {
					t.Error(err)
					return
				}
				if got := fmt.Sprint(res.Cols, res.Rows); got != want[fmt.Sprint(text, id)] {
					t.Errorf("session %d, %.30s…(%d): got %s, want %s", w, text, id, got, want[fmt.Sprint(text, id)])
					return
				}
			}
			if st := s.TakeContention(); st.PlanMisses != 0 {
				t.Errorf("session %d: %d plan-cache misses, want hits only", w, st.PlanMisses)
			}
		}()
	}
	close(start)
	wg.Wait()
}
