package minisql

import (
	"fmt"
	"strings"
	"testing"

	"pdmtune/internal/minisql/parser"
)

// dumpTable renders a table's rows in primary-key order.
func dumpTable(t *testing.T, s *Session, table string) string {
	t.Helper()
	return strings.Join(rowsToStrings(mustExec(t, s, "SELECT * FROM "+table+" ORDER BY 1")), ";")
}

func newUnitDB(t *testing.T) (*DB, *Session) {
	t.Helper()
	db := NewDB()
	s := db.NewSession()
	mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, s, "CREATE TABLE u (id INTEGER PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
	return db, s
}

// TestWriteUnitIsolation: while a unit is open, its statements read
// their own staged rows and nobody else — another session's SELECT, a
// replication delta — sees any of them. Abort leaves the epoch and
// every stamp as they were; Commit publishes at exactly one new epoch.
func TestWriteUnitIsolation(t *testing.T) {
	db, s := newUnitDB(t)
	other := db.NewSession()
	before, epoch := dumpTable(t, other, "t"), db.Epoch()
	stamps := map[int64]uint64{}
	for k := int64(1); k <= 4; k++ {
		stamps[k] = db.LastModified(k)
	}
	stage := func() {
		if err := s.Begin("t"); err != nil {
			t.Fatal(err)
		}
		if res := mustExec(t, s, "UPDATE t SET v = 'x'"); res.RowsAffected != 3 {
			t.Fatalf("UPDATE affected %d rows, want 3", res.RowsAffected)
		}
		mustExec(t, s, "INSERT INTO t VALUES (4, 'new')")
		mustExec(t, s, "DELETE FROM t WHERE id = 2")
		if got := dumpTable(t, s, "t"); got != "1|x;3|x;4|new" {
			t.Fatalf("the unit reads %q, want its own staged rows", got)
		}
		if got := dumpTable(t, other, "t"); got != before {
			t.Fatalf("another session reads %q while the unit is open, want %q", got, before)
		}
		d := db.ExtractDelta(0)
		if d.Epoch != epoch || d.RowCount() != 3 {
			t.Fatalf("delta during the unit: epoch %d, %d rows; want %d, 3", d.Epoch, d.RowCount(), epoch)
		}
		for _, td := range d.Tables {
			for _, r := range td.Rows {
				if r[1].Text() == "x" || r[1].Text() == "new" {
					t.Fatalf("delta ships staged row %v", r)
				}
			}
		}
	}

	stage()
	s.Abort()
	if got := dumpTable(t, other, "t"); got != before {
		t.Fatalf("after Abort: %q, want %q", got, before)
	}
	if db.Epoch() != epoch {
		t.Fatalf("Abort moved the epoch %d -> %d", epoch, db.Epoch())
	}
	for k, e := range stamps {
		if db.LastModified(k) != e {
			t.Errorf("Abort moved LastModified(%d) %d -> %d", k, e, db.LastModified(k))
		}
	}

	stage()
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != epoch+1 {
		t.Fatalf("Commit moved the epoch %d -> %d, want +1", epoch, db.Epoch())
	}
	for k := int64(1); k <= 4; k++ {
		if db.LastModified(k) != epoch+1 {
			t.Errorf("LastModified(%d) = %d, want %d", k, db.LastModified(k), epoch+1)
		}
	}
	if got := dumpTable(t, other, "t"); got != "1|x;3|x;4|new" {
		t.Fatalf("after Commit another session reads %q", got)
	}
}

// TestWriteUnitRules: one unit per session; a statement may write only
// the unit's tables; a failed statement aborts the unit; SQL has no
// BEGIN/COMMIT/ROLLBACK.
func TestWriteUnitRules(t *testing.T) {
	db, s := newUnitDB(t)
	if err := s.Commit(); err == nil {
		t.Error("Commit without an open unit succeeded")
	}
	if err := s.Begin("t"); err != nil {
		t.Fatal(err)
	}
	if err := s.Begin("u"); err == nil {
		t.Error("a second Begin succeeded")
	}
	if _, err := s.Exec("INSERT INTO u VALUES (1)"); err == nil || !strings.Contains(err.Error(), "does not hold table u") {
		t.Errorf("write outside the unit's tables: %v", err)
	}
	// The refused statement did not end the unit; a failing one does.
	mustExec(t, s, "UPDATE t SET v = 'x' WHERE id = 1")
	epoch := db.Epoch()
	if _, err := s.Exec("INSERT INTO t VALUES (2, 'dup')"); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if err := s.Commit(); err == nil {
		t.Error("Commit after a failed statement succeeded; the unit should be aborted")
	}
	if got := dumpTable(t, s, "t"); got != "1|a;2|b;3|c" || db.Epoch() != epoch {
		t.Errorf("after the failed unit: %q at epoch %d, want the old rows at %d", got, db.Epoch(), epoch)
	}
	// Latches are free again: another session writes both tables.
	mustExec(t, db.NewSession(), "INSERT INTO u VALUES (1)")

	for _, q := range []string{"BEGIN", "COMMIT", "ROLLBACK", "BEGIN TRANSACTION"} {
		if _, err := s.Exec(q); err == nil || !strings.Contains(err.Error(), "Session.Begin") {
			t.Errorf("%s: %v, want a parse error naming Session.Begin", q, err)
		}
	}
}

// TestWriteUnitBulkInsertAllocs: a multi-row INSERT reserves its rows
// once, so its row arrays, versions and slots come from one allocation
// each and its scratch row is reused: a 200-row and a 400-row statement
// allocate the same.
func TestWriteUnitBulkInsertAllocs(t *testing.T) {
	cost := func(rows int) float64 {
		tuples := make([]string, rows)
		for i := range tuples {
			tuples[i] = fmt.Sprintf("(%d, 'n%d', %d.5)", i, i%7, i)
		}
		stmt, err := parser.Parse("INSERT INTO t VALUES " + strings.Join(tuples, ", "))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			s := NewDB().NewSession()
			mustExec(t, s, "CREATE TABLE t (id INTEGER, name TEXT, w FLOAT)")
			if res, err := s.ExecStmt(stmt); err != nil || res.RowsAffected != rows {
				t.Fatalf("inserted %v, error %v; want %d rows", res, err, rows)
			}
		})
	}
	if few, many := cost(200), cost(400); few != many {
		t.Errorf("a 200-row INSERT allocates %.0f times, a 400-row one %.0f: want the same", few, many)
	}
}
