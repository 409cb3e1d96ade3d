package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"pdmtune"
	"pdmtune/internal/minisql/types"
)

// The users mode drives N concurrent sessions through a mixed workload
// — multi-level expands, first-wins check-out/check-in races, small part
// updates — over a shared connection pool against the real engine, and
// checks the outcome: the final database must equal a serial replay of
// the same mutations and no row may be left checked out.

// userOp is one step of a user's scripted workload.
type userOp struct {
	kind  int // 0 = check-out/check-in pair, 1 = MLE, 2 = update
	table int // update target (index into userUpdates)
	row   int // update row selector
}

const (
	opCheckPair = iota
	opMLE
	opUpdate
)

// userUpdates are the targets update ops rotate over: commutative
// single-row writes (increments and constant sets) on four tables plus a
// second comp column, so any interleaving — including the serial
// replay — reaches the same final state.
var userUpdates = []struct{ table, sql string }{
	{"assy", "UPDATE assy SET weight = weight + 1 WHERE obid = ?"},
	{"comp", "UPDATE comp SET weight = weight + 1 WHERE obid = ?"},
	{"link", "UPDATE link SET eff_to = eff_to + 1 WHERE obid = ?"},
	{"spec", "UPDATE spec SET doc = 'touched' WHERE obid = ?"},
	{"comp", "UPDATE comp SET data = 'bench' WHERE obid = ?"},
}

// userScript returns user u's deterministic op sequence. Phases are
// staggered by user index: real users are not lock-step.
func userScript(u, per int) []userOp {
	ops := make([]userOp, 0, per)
	for i := 0; i < per; i++ {
		switch p := (i + u) % 6; {
		case p == 0:
			ops = append(ops, userOp{kind: opCheckPair})
		case p%2 == 1:
			ops = append(ops, userOp{kind: opMLE})
		default:
			ops = append(ops, userOp{kind: opUpdate, table: (u + i) % len(userUpdates), row: u + i})
		}
	}
	return ops
}

// updateSQL returns the statement and target row of an update op.
func updateSQL(op userOp, ids map[string][]int64) (string, int64) {
	up := userUpdates[op.table]
	list := ids[up.table]
	return up.sql, list[op.row%len(list)]
}

var usersProduct = pdmtune.ProductConfig{Depth: 3, Branch: 3, Sigma: 1.0, Seed: 42}

// usersSystem seeds the bench database (one fixed product structure)
// and collects the update-target ids.
func usersSystem() (*pdmtune.System, *pdmtune.Product, map[string][]int64, error) {
	sys := pdmtune.NewSystem(nil)
	prod, err := sys.LoadProduct(usersProduct)
	if err != nil {
		return nil, nil, nil, err
	}
	ids := map[string][]int64{}
	s := sys.DB.NewSession()
	for _, table := range []string{"assy", "comp", "link", "spec"} {
		res, err := s.Query("SELECT obid FROM " + table + " ORDER BY obid")
		if err != nil {
			return nil, nil, nil, err
		}
		for _, row := range res.Rows {
			ids[table] = append(ids[table], row[0].Int())
		}
		if len(ids[table]) == 0 {
			return nil, nil, nil, fmt.Errorf("bench product has no %s rows", table)
		}
	}
	return sys, prod, ids, nil
}

// usersState is tableState of every table the workload touches.
func usersState(ctx context.Context, sys *pdmtune.System) (dump string, checkedOut int, err error) {
	s, err := open(sys, pdmtune.LAN(), "audit")
	if err != nil {
		return "", 0, err
	}
	defer s.Close()
	return tableState(ctx, s, "assy", "comp", "link", "spec", "specified_by")
}

// driveUser runs user u's script on its own session and returns the
// session's metrics, the per-op wall latencies and the outcome of its
// check-out races.
func driveUser(ctx context.Context, e *env, sys *pdmtune.System, prod *pdmtune.Product, ids map[string][]int64, u int) (m pdmtune.Metrics, lat []time.Duration, wins, conflicts int, err error) {
	sess, err := open(sys, pdmtune.LAN(), fmt.Sprintf("u%d", u),
		pdmtune.WithPool(e.pool), pdmtune.WithStrategy(pdmtune.Recursive))
	if err != nil {
		return m, nil, 0, 0, err
	}
	defer sess.Close()
	for _, op := range userScript(u, e.ops) {
		t0 := time.Now()
		switch op.kind {
		case opCheckPair:
			var res *pdmtune.CheckOutResult
			res, err = sess.CheckOutViaProcedure(ctx, prod.RootID)
			var conflict *pdmtune.ConflictError
			switch {
			case errors.As(err, &conflict):
				conflicts, err = conflicts+1, nil
			case err != nil:
			case res.Granted:
				wins++
				_, err = sess.CheckInViaProcedure(ctx, prod.RootID)
			default:
				conflicts++ // denied by rule: the winner's flags were visible
			}
		case opMLE:
			_, err = sess.MultiLevelExpand(ctx, prod.RootID)
		default:
			sql, obid := updateSQL(op, ids)
			_, err = sess.Exec(ctx, sql, types.NewInt(obid))
		}
		if err != nil {
			return m, nil, 0, 0, err
		}
		lat = append(lat, time.Since(t0))
	}
	return sess.Metrics(), lat, wins, conflicts, nil
}

// runUsers executes the concurrent run and the serial replay.
func runUsers(e *env) ([]record, error) {
	ctx := context.Background()
	sys, prod, ids, err := usersSystem()
	if err != nil {
		return nil, err
	}

	var mu sync.Mutex
	var latencies []time.Duration
	var agg pdmtune.Metrics
	var totalWins, totalConflicts int
	var firstErr error
	var wg sync.WaitGroup
	begin := time.Now()
	for u := 0; u < e.users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			m, lat, wins, conflicts, err := driveUser(ctx, e, sys, prod, ids, u)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				firstErr = err
				return
			}
			latencies = append(latencies, lat...)
			agg = agg.Add(m)
			totalWins += wins
			totalConflicts += conflicts
		}(u)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	wall := time.Since(begin)
	ms := func(nanos int64) float64 { return float64(nanos) / 1e6 }
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	n := len(latencies)
	extra := kv{
		"users": float64(e.users), "pool_size": float64(e.pool), "ops_per_user": float64(e.ops), "ops": float64(n),
		"checkout_wins": float64(totalWins), "checkout_conflicts": float64(totalConflicts),
		"wall_ms": ms(wall.Nanoseconds()), "throughput_ops_per_sec": float64(n) / wall.Seconds(),
		"p50_ms": ms(latencies[n/2].Nanoseconds()), "p99_ms": ms(latencies[min(n-1, n*99/100)].Nanoseconds()),
	}

	// Invariants: every first-wins race was resolved (no row left
	// checked out) and the committed state equals a serial replay of
	// the same mutations on a freshly seeded system. MLEs read nothing
	// into the dump and check-out/check-in pairs net to zero, so the
	// replay applies just the update ops, in script order.
	serial, _, serialIDs, err := usersSystem()
	if err != nil {
		return nil, err
	}
	ss := serial.DB.NewSession()
	for u := 0; u < e.users; u++ {
		for _, op := range userScript(u, e.ops) {
			if op.kind != opUpdate {
				continue
			}
			sql, obid := updateSQL(op, serialIDs)
			if _, err := ss.Exec(sql, types.NewInt(obid)); err != nil {
				return nil, err
			}
		}
	}
	got, checkedOut, err := usersState(ctx, sys)
	if err != nil {
		return nil, err
	}
	want, _, err := usersState(ctx, serial)
	if err != nil {
		return nil, err
	}
	extra["all_checkout_flags_clear"], extra["dump_equals_serial_replay"] = checkedOut == 0, got == want
	return []record{{
		Mode: "users", Scenario: treeName(usersProduct),
		Config:  fmt.Sprintf("%d sessions over a %d-connection pool, %d ops each", e.users, e.pool, e.ops),
		Metrics: agg,
		Extra:   extra,
	}}, nil
}

func textUsers(w io.Writer, recs []record) {
	r := recs[0]
	fmt.Fprintf(w, "Concurrent users — %s (per-table latches, lock-free snapshot reads)\n", r.Config)
	fmt.Fprintf(w, "  ops %.0f  wall %.0f ms  throughput %.0f ops/s  p50 %.2f ms  p99 %.2f ms\n",
		r.num("ops"), r.num("wall_ms"), r.num("throughput_ops_per_sec"), r.num("p50_ms"), r.num("p99_ms"))
	fmt.Fprintf(w, "  check-outs: %.0f won, %.0f lost the first-wins race\n", r.num("checkout_wins"), r.num("checkout_conflicts"))
	fmt.Fprintf(w, "  contention: lock wait %.1f ms, %d snapshots, %d write conflicts\n",
		float64(r.Metrics.LockWaitNanos)/1e6, r.Metrics.SnapshotsStarted, r.Metrics.WriteConflicts)
	fmt.Fprintf(w, "  dump equals serial replay: %v   all check-out flags clear: %v\n\n",
		r.Extra["dump_equals_serial_replay"], r.Extra["all_checkout_flags_clear"])
}
