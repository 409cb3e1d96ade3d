package pdmtune_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	pdmtune "pdmtune"
	"pdmtune/internal/core"
	"pdmtune/internal/minisql"
	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/workload"
)

// The whole stack under concurrency: writer sessions racing
// first-wins check-outs at the primary, cached readers at a replica
// site, and a replication sync loop — all interleaved freely. After
// quiescing and a final sync, the replica's dump must equal the
// primary's, and no row may be left checked out. Run with -race.
func TestConcurrentWritersSyncAndCachedReaders(t *testing.T) {
	cl := newTestCluster(t, pdmtune.SiteConfig{Name: "munich"})
	prod, err := cl.LoadProduct(pdmtune.ProductConfig{Depth: 3, Branch: 3, Sigma: 1.0, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := cl.SyncSite(ctx, "munich"); err != nil {
		t.Fatal(err)
	}

	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: primary sessions, each on its own connection, race
	// check-out/check-in of the same root. First wins; losers see
	// ConflictError (procedure path) or an ungranted result — both
	// fine, never an inconsistent grab.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess, err := cl.Primary().Open(
				pdmtune.WithLink(pdmtune.LAN()),
				pdmtune.WithUser(pdmtune.DefaultUser(fmt.Sprintf("w%d", w))))
			if err != nil {
				t.Error(err)
				return
			}
			var conflict *core.ConflictError
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := sess.CheckOutViaProcedure(ctx, prod.RootID)
				if err != nil && !errors.As(err, &conflict) {
					t.Errorf("writer %d check-out: %v", w, err)
					return
				}
				if err == nil && res.Granted {
					if _, err := sess.CheckInViaProcedure(ctx, prod.RootID); err != nil {
						t.Errorf("writer %d check-in: %v", w, err)
						return
					}
				}
			}
		}(w)
	}

	// Cached readers at the site, each with a structure cache of its
	// own at the default bound.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sess, err := cl.OpenAt(ctx, "munich",
				pdmtune.WithCache(0),
				pdmtune.WithUser(pdmtune.DefaultUser(fmt.Sprintf("r%d", r))))
			if err != nil {
				t.Error(err)
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sess.MultiLevelExpand(ctx, prod.RootID); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}

	// Replication pulls interleaved with everything above.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := cl.SyncSite(ctx, "munich"); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesce: every writer releases whatever it still holds, then one
	// final sync. Dumps must match and all flags must be clear.
	for w := 0; w < writers; w++ {
		sess, err := cl.Primary().Open(
			pdmtune.WithLink(pdmtune.LAN()),
			pdmtune.WithUser(pdmtune.DefaultUser(fmt.Sprintf("w%d", w))))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.CheckInViaProcedure(ctx, prod.RootID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.SyncSite(ctx, "munich"); err != nil {
		t.Fatal(err)
	}

	primary, err := cl.Primary().Open(pdmtune.WithLink(pdmtune.LAN()))
	if err != nil {
		t.Fatal(err)
	}
	replica, err := cl.OpenAt(ctx, "munich")
	if err != nil {
		t.Fatal(err)
	}
	if p, r := dumpVia(t, primary), dumpVia(t, replica); p != r {
		t.Error("replica dump diverged from primary after final sync")
	}
	for _, table := range []string{"assy", "comp"} {
		resp, err := primary.Exec(ctx, "SELECT COUNT(*) FROM "+table+" WHERE checkedout = TRUE")
		if err != nil {
			t.Fatal(err)
		}
		if n := resp.Rows[0][0].Int(); n != 0 {
			t.Errorf("%d rows of %s left checked out", n, table)
		}
	}
}

// TestConcurrentFirstExecution: 16 sessions run one never-executed
// SELECT at the same moment, so every one of them may be its first
// execution, and each must read exactly the rows a solo run of the same
// text reads. The statements cover a join under UNION ALL (Expand), a
// recursive CTE joined twice per branch (the recursive MLE) and an
// aggregate per branch (Report). Run with -race.
func TestConcurrentFirstExecution(t *testing.T) {
	db := minisql.NewDB()
	if err := workload.LoadPaperExample(db.NewSession()); err != nil {
		t.Fatal(err)
	}
	render := func(res *minisql.Result) string {
		return fmt.Sprint(res.Cols, res.Rows)
	}
	for _, build := range []func() *ast.Select{core.BuildExpandQuery, core.BuildRecursiveQuery, core.BuildReportQuery} {
		text := build().String()
		params := make([]minisql.Value, strings.Count(text, "?"))
		for i := range params {
			params[i] = types.NewInt(1)
		}
		solo, err := db.NewSession().ExecStmt(build(), params...)
		if err != nil {
			t.Fatal(err)
		}
		want := render(solo)

		const sessions = 16
		held := build() // never executed before the sessions start
		got := make([]string, sessions)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s := db.NewSession()
				<-start
				res, err := s.ExecStmt(held, params...)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = render(res)
			}(i)
		}
		close(start)
		wg.Wait()
		for i, g := range got {
			if g != want {
				t.Errorf("%.40s…: session %d read %s, want %s", text, i, g, want)
			}
		}
	}
}
