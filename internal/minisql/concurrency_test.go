package minisql

import (
	"fmt"
	"sync"

	"pdmtune/internal/minisql/types"
	"testing"
)

func newConcurrencyDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	s := db.NewSession()
	script := `
CREATE TABLE kv (id INTEGER PRIMARY KEY, val INTEGER NOT NULL);
INSERT INTO kv VALUES (1, 0), (2, 0), (3, 0);
CREATE TABLE other (id INTEGER PRIMARY KEY, val INTEGER NOT NULL);
INSERT INTO other VALUES (1, 0);`
	if _, err := s.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	return db
}

// A multi-row UPDATE is atomic under snapshot isolation: a concurrent
// SELECT sees either all three rows flipped or none — never a mix.
// Run with -race.
func TestSnapshotStatementAtomicity(t *testing.T) {
	db := newConcurrencyDB(t)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan string, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Query("SELECT DISTINCT val FROM kv")
				if err != nil {
					fail <- err.Error()
					return
				}
				if len(res.Rows) != 1 {
					fail <- fmt.Sprintf("torn statement: saw %d distinct values", len(res.Rows))
					return
				}
			}
		}()
	}
	w := db.NewSession()
	for i := 1; i <= 150; i++ {
		if _, err := w.Exec("UPDATE kv SET val = ?", types.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}

// Writers on different tables do not serialize against each other under
// MVCC, and every session's counters add up. Run with -race.
func TestConcurrentWritersDifferentTables(t *testing.T) {
	db := newConcurrencyDB(t)
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	run := func(table string) {
		defer wg.Done()
		s := db.NewSession()
		for i := 0; i < 100; i++ {
			if _, err := s.Exec(fmt.Sprintf("UPDATE %s SET val = val + 1 WHERE id = 1", table)); err != nil {
				errs <- err
				return
			}
		}
	}
	wg.Add(2)
	go run("kv")
	go run("other")
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	s := db.NewSession()
	for _, table := range []string{"kv", "other"} {
		res, err := s.Query(fmt.Sprintf("SELECT val FROM %s WHERE id = 1", table))
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].Int(); got != 100 {
			t.Errorf("%s.val = %d, want 100 (lost update)", table, got)
		}
	}
}

// Same-table writers serialize on the table latch: no lost updates.
// Run with -race.
func TestConcurrentWritersSameTable(t *testing.T) {
	db := newConcurrencyDB(t)
	var wg sync.WaitGroup
	const workers, per = 4, 50
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < per; i++ {
				if _, err := s.Exec("UPDATE kv SET val = val + 1 WHERE id = 2"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	res, err := db.NewSession().Query("SELECT val FROM kv WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != workers*per {
		t.Errorf("val = %d, want %d (lost update)", got, workers*per)
	}
}

// A write unit makes a read-check-write sequence atomic: racing
// sessions incrementing inside Begin/Commit never lose an update, and
// the loser of each race accumulates lock-wait time.
func TestWriteUnitAtomicSequence(t *testing.T) {
	db := newConcurrencyDB(t)
	var wg sync.WaitGroup
	const workers, per = 4, 25
	var waitNanos int64
	var mu sync.Mutex
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < per; i++ {
				if err := s.Begin("kv"); err != nil {
					errs <- err
					return
				}
				res, err := s.Query("SELECT val FROM kv WHERE id = 3")
				if err == nil {
					_, err = s.Exec("UPDATE kv SET val = ? WHERE id = 3", types.NewInt(res.Rows[0][0].Int()+1))
				}
				if err == nil {
					err = s.Commit()
				}
				if err != nil {
					errs <- err
					return
				}
			}
			st := s.TakeContention()
			mu.Lock()
			waitNanos += st.LockWaitNanos
			mu.Unlock()
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	res, err := db.NewSession().Query("SELECT val FROM kv WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != workers*per {
		t.Errorf("val = %d, want %d (read-check-write not atomic)", got, workers*per)
	}
	_ = waitNanos // contention is timing-dependent; presence is asserted elsewhere
}

// Contention counters: snapshots are counted per read statement and
// TakeContention drains.
func TestContentionStats(t *testing.T) {
	db := newConcurrencyDB(t)
	s := db.NewSession()
	for i := 0; i < 3; i++ {
		if _, err := s.Query("SELECT val FROM kv WHERE id = 1"); err != nil {
			t.Fatal(err)
		}
	}
	st := s.TakeContention()
	if st.SnapshotsStarted != 3 {
		t.Errorf("SnapshotsStarted = %d, want 3", st.SnapshotsStarted)
	}
	if !s.TakeContention().IsZero() {
		t.Error("TakeContention did not drain")
	}
	s.CountWriteConflict()
	if got := s.TakeContention().WriteConflicts; got != 1 {
		t.Errorf("WriteConflicts = %d, want 1", got)
	}
}
