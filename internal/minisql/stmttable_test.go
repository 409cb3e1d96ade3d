package minisql

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/parser"
	"pdmtune/internal/minisql/types"
)

// planCacheBytes is the budget of the unprepared half of the statement
// table, under the name the plan-cache tests know it by.
const planCacheBytes = stmtTableBytes

// TestPreparedStatementsBoundedByBytes floods the table with distinct
// 4 KiB prepares: they are refused with ErrStatementTableFull once their
// texts would pass the budget, the prepared half never pins more than
// it, a text prepared before still answers its handle, and a refused
// text is cached as an unprepared one. Neither half crowds out the
// other: the hot text stays a hit beside the flood, and the handles
// survive a churn of one-shot texts.
func TestPreparedStatementsBoundedByBytes(t *testing.T) {
	db := planTestDB(t)
	s := db.NewSession()
	const hot = "SELECT typ FROM obj WHERE id = ?"
	if _, err := s.Query(hot, types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 4<<10)
	flood := func(i int) string { return fmt.Sprintf("SELECT typ, '%s', %d FROM obj WHERE id = ?", pad, i) }
	var handles []uint32
	refused := ""
	for i := 0; i < 100; i++ {
		h, err := s.Prepare(flood(i))
		switch {
		case errors.Is(err, ErrStatementTableFull):
			if refused == "" {
				refused = flood(i)
			}
		case err != nil:
			t.Fatal(err)
		case refused != "":
			t.Fatalf("prepare %d accepted after a refusal", i)
		default:
			handles = append(handles, h)
		}
		if db.plans.preparedBytes > stmtTableBytes {
			t.Fatalf("after %d prepares the prepared statements pin %d bytes, budget %d", i+1, db.plans.preparedBytes, stmtTableBytes)
		}
	}
	if refused == "" {
		t.Fatalf("100 prepares of %d bytes each were all accepted", len(flood(0)))
	}
	if h, err := s.Prepare(flood(0)); err != nil || h != handles[0] {
		t.Errorf("re-prepare of a pinned text on a full table: handle %d, %v; want %d", h, err, handles[0])
	}
	if _, ok := db.plans.get(refused); !ok {
		t.Error("a refused prepare left its parse out of the table")
	}
	s.TakeContention()
	if _, err := s.Query(hot, types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	if st := s.TakeContention(); st.PlanHits != 1 || st.PlanMisses != 0 {
		t.Errorf("hot text after the flood: hits=%d misses=%d, want 1/0", st.PlanHits, st.PlanMisses)
	}

	for i := 0; i < 100; i++ {
		mustExec(t, s, bulkInsert(1000+100*i, 100))
	}
	for i, h := range handles {
		stmt, err := s.Prepared(h)
		if err != nil {
			t.Fatalf("handle %d after the churn: %v", h, err)
		}
		if want, _ := parser.Parse(flood(i)); stmt.String() != want.String() {
			t.Fatalf("handle %d answers %.60s, want %.60s", h, stmt, want)
		}
	}
	if _, err := s.Prepared(uint32(len(handles) + 1)); err == nil {
		t.Error("a handle never issued resolved")
	}
}

// TestPrepareKeepsThePublishedStatement: the statement behind a text is
// published once. A parse of a text already in the table, a prepare of
// it and its handle all return the statement first published, so a
// session holding it never sees it replaced.
func TestPrepareKeepsThePublishedStatement(t *testing.T) {
	db := planTestDB(t)
	s := db.NewSession()
	const q = "SELECT typ FROM obj WHERE id = ?"
	first, err := s.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := parser.Parse(q)
	if got := db.plans.put(q, again); got != first {
		t.Error("a second parse of a cached text replaced its statement")
	}
	h, err := s.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	var held ast.Statement
	if held, err = s.Prepared(h); err != nil || held != first {
		t.Errorf("handle %d: %p, %v; want the published statement %p", h, held, err, first)
	}
	if n := db.plans.pinned(); n != 0 {
		t.Errorf("a prepared text still counts %d bytes in the LRU", n)
	}
}

// TestReadOnlyByStatementKind: SELECT, WITH and EXPLAIN — even of a
// write — read; DML, DDL and CALL write.
func TestReadOnlyByStatementKind(t *testing.T) {
	for sql, want := range map[string]bool{
		"SELECT 1": true,
		"WITH RECURSIVE r (n) AS (SELECT 1 UNION SELECT n + 1 FROM r WHERE n < 3) SELECT n FROM r": true,
		"EXPLAIN UPDATE obj SET state = 'x'":            true,
		"/* a read */ SELECT id FROM obj":               true,
		"INSERT INTO obj VALUES (9, 'part', 'working')": false,
		"UPDATE obj SET state = 'x' WHERE id = 1":       false,
		"DELETE FROM obj WHERE id = 1":                  false,
		"CREATE TABLE x (id INTEGER)":                   false,
		"CREATE INDEX obj_typ ON obj (typ)":             false,
		"DROP TABLE obj":                                false,
		"CALL pdm_check_out(1)":                         false,
	} {
		stmt, err := parser.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got := ReadOnly(stmt); got != want {
			t.Errorf("ReadOnly(%s) = %v, want %v", sql, got, want)
		}
	}
}
