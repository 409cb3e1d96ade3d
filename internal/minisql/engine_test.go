package minisql

import (
	"strings"
	"testing"

	"pdmtune/internal/minisql/types"
)

// mustExec runs a statement and fails the test on error.
func mustExec(t *testing.T, s *Session, sql string, params ...Value) *Result {
	t.Helper()
	res, err := s.Exec(sql, params...)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

// rowsToStrings renders all rows for compact comparison.
func rowsToStrings(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func newTestSession(t *testing.T) *Session {
	t.Helper()
	return NewDB().NewSession()
}

func TestCreateInsertSelect(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE p (id INTEGER PRIMARY KEY, name TEXT, weight FLOAT)")
	res := mustExec(t, s, "INSERT INTO p VALUES (1, 'bolt', 0.5), (2, 'nut', 0.2)")
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d, want 2", res.RowsAffected)
	}
	res = mustExec(t, s, "SELECT id, name FROM p ORDER BY id")
	got := rowsToStrings(res)
	want := []string{"1|bolt", "2|nut"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestInsertColumnListAndDefaults(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (a INTEGER, b TEXT DEFAULT 'x', c INTEGER)")
	mustExec(t, s, "INSERT INTO t (a) VALUES (1)")
	res := mustExec(t, s, "SELECT a, b, c FROM t")
	if got := rowsToStrings(res)[0]; got != "1|x|NULL" {
		t.Fatalf("row = %q, want 1|x|NULL", got)
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, x TEXT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 'a')")
	if _, err := s.Exec("INSERT INTO t VALUES (1, 'b')"); err == nil {
		t.Fatal("duplicate primary key insert should fail")
	}
	// The failed insert must not leave a phantom row.
	res := mustExec(t, s, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("count = %s, want 1", res.Rows[0][0])
	}
}

func TestNotNullEnforced(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (id INTEGER NOT NULL)")
	if _, err := s.Exec("INSERT INTO t VALUES (NULL)"); err == nil {
		t.Fatal("NULL into NOT NULL column should fail")
	}
}

func TestUpdateDelete(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (id INTEGER, v TEXT)")
	mustExec(t, s, "INSERT INTO t VALUES (1,'a'),(2,'b'),(3,'c')")
	res := mustExec(t, s, "UPDATE t SET v = 'z' WHERE id >= 2")
	if res.RowsAffected != 2 {
		t.Fatalf("update affected %d, want 2", res.RowsAffected)
	}
	res = mustExec(t, s, "DELETE FROM t WHERE v = 'z'")
	if res.RowsAffected != 2 {
		t.Fatalf("delete affected %d, want 2", res.RowsAffected)
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM t")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("count = %s, want 1", res.Rows[0][0])
	}
}

func TestUpdateSelfReference(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (id INTEGER, v INTEGER)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 10), (2, 20)")
	mustExec(t, s, "UPDATE t SET v = v + 1")
	res := mustExec(t, s, "SELECT SUM(v) FROM t")
	if res.Rows[0][0].Int() != 32 {
		t.Fatalf("sum = %s, want 32", res.Rows[0][0])
	}
}

func TestThreeValuedLogic(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (a INTEGER)")
	mustExec(t, s, "INSERT INTO t VALUES (1), (NULL), (3)")
	// NULL = NULL is Unknown, filtered out by WHERE.
	res := mustExec(t, s, "SELECT COUNT(*) FROM t WHERE a = a")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("a = a matched %s rows, want 2", res.Rows[0][0])
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM t WHERE a IS NULL")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("IS NULL matched %s rows, want 1", res.Rows[0][0])
	}
	// NOT (NULL > 1) is still Unknown.
	res = mustExec(t, s, "SELECT COUNT(*) FROM t WHERE NOT (a > 1)")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("NOT (a > 1) matched %s rows, want 1", res.Rows[0][0])
	}
}

func TestJoinInnerAndLeft(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE a (id INTEGER, x TEXT)")
	mustExec(t, s, "CREATE TABLE b (aid INTEGER, y TEXT)")
	mustExec(t, s, "INSERT INTO a VALUES (1,'p'),(2,'q'),(3,'r')")
	mustExec(t, s, "INSERT INTO b VALUES (1,'u'),(1,'v'),(3,'w')")

	res := mustExec(t, s, "SELECT a.id, b.y FROM a JOIN b ON a.id = b.aid ORDER BY 1, 2")
	got := rowsToStrings(res)
	want := []string{"1|u", "1|v", "3|w"}
	if len(got) != len(want) {
		t.Fatalf("inner join rows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("inner row %d = %q, want %q", i, got[i], want[i])
		}
	}

	res = mustExec(t, s, "SELECT a.id, b.y FROM a LEFT JOIN b ON a.id = b.aid ORDER BY 1, 2")
	got = rowsToStrings(res)
	want = []string{"1|u", "1|v", "2|NULL", "3|w"}
	if len(got) != len(want) {
		t.Fatalf("left join rows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("left row %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestCrossListWithWhereBecomesJoin(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE a (id INTEGER)")
	mustExec(t, s, "CREATE TABLE b (id INTEGER)")
	mustExec(t, s, "INSERT INTO a VALUES (1),(2)")
	mustExec(t, s, "INSERT INTO b VALUES (2),(3)")
	res := mustExec(t, s, "SELECT a.id FROM a, b WHERE a.id = b.id")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("rows = %v, want single row 2", rowsToStrings(res))
	}
}

func TestAggregatesAndGroupBy(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (grp TEXT, v INTEGER)")
	mustExec(t, s, "INSERT INTO t VALUES ('a',1),('a',2),('b',3),('b',NULL)")
	res := mustExec(t, s, "SELECT grp, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM t GROUP BY grp ORDER BY 1")
	got := rowsToStrings(res)
	want := []string{"a|2|2|3|1.5|1|2", "b|2|1|3|3|3|3"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("group %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (v INTEGER)")
	res := mustExec(t, s, "SELECT COUNT(*), SUM(v), AVG(v), MIN(v) FROM t")
	if got := rowsToStrings(res)[0]; got != "0|NULL|NULL|NULL" {
		t.Fatalf("empty aggregate = %q, want 0|NULL|NULL|NULL", got)
	}
}

func TestHaving(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (grp TEXT, v INTEGER)")
	mustExec(t, s, "INSERT INTO t VALUES ('a',1),('a',2),('b',3)")
	res := mustExec(t, s, "SELECT grp FROM t GROUP BY grp HAVING COUNT(*) > 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "a" {
		t.Fatalf("having result = %v, want [a]", rowsToStrings(res))
	}
}

func TestCountDistinct(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (v INTEGER)")
	mustExec(t, s, "INSERT INTO t VALUES (1),(1),(2),(NULL)")
	res := mustExec(t, s, "SELECT COUNT(DISTINCT v) FROM t")
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("count distinct = %s, want 2", res.Rows[0][0])
	}
}

func TestExistsCorrelatedAndNot(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE comp (obid INTEGER, name TEXT)")
	mustExec(t, s, "CREATE TABLE spec (obid INTEGER, compid INTEGER)")
	mustExec(t, s, "INSERT INTO comp VALUES (1,'c1'),(2,'c2'),(3,'c3')")
	mustExec(t, s, "INSERT INTO spec VALUES (100,1),(101,3)")
	res := mustExec(t, s, "SELECT name FROM comp WHERE EXISTS (SELECT * FROM spec WHERE spec.compid = comp.obid) ORDER BY 1")
	got := rowsToStrings(res)
	if len(got) != 2 || got[0] != "c1" || got[1] != "c3" {
		t.Fatalf("exists result = %v, want [c1 c3]", got)
	}
	res = mustExec(t, s, "SELECT name FROM comp WHERE NOT EXISTS (SELECT * FROM spec WHERE spec.compid = comp.obid)")
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "c2" {
		t.Fatalf("not exists result = %v, want [c2]", rowsToStrings(res))
	}
}

func TestInSubqueryNullSemantics(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE a (v INTEGER)")
	mustExec(t, s, "CREATE TABLE b (v INTEGER)")
	mustExec(t, s, "INSERT INTO a VALUES (1),(2)")
	mustExec(t, s, "INSERT INTO b VALUES (1),(NULL)")
	// 2 NOT IN (1, NULL) is Unknown, so only... 1 NOT IN (1,NULL) is False.
	res := mustExec(t, s, "SELECT COUNT(*) FROM a WHERE v NOT IN (SELECT v FROM b)")
	if res.Rows[0][0].Int() != 0 {
		t.Fatalf("NOT IN with NULL matched %s rows, want 0", res.Rows[0][0])
	}
	res = mustExec(t, s, "SELECT COUNT(*) FROM a WHERE v IN (SELECT v FROM b)")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("IN with NULL matched %s rows, want 1", res.Rows[0][0])
	}
}

func TestScalarSubquery(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (v INTEGER)")
	mustExec(t, s, "INSERT INTO t VALUES (1),(2),(3)")
	res := mustExec(t, s, "SELECT v FROM t WHERE v = (SELECT MAX(v) FROM t)")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 {
		t.Fatalf("scalar subquery result = %v, want [3]", rowsToStrings(res))
	}
	// Empty scalar subquery yields NULL.
	res = mustExec(t, s, "SELECT (SELECT v FROM t WHERE v > 100)")
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("empty scalar subquery = %s, want NULL", res.Rows[0][0])
	}
}

func TestUnionAndUnionAll(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (v INTEGER)")
	mustExec(t, s, "INSERT INTO t VALUES (1),(2)")
	res := mustExec(t, s, "SELECT v FROM t UNION SELECT v FROM t ORDER BY 1")
	if len(res.Rows) != 2 {
		t.Fatalf("UNION rows = %d, want 2", len(res.Rows))
	}
	res = mustExec(t, s, "SELECT v FROM t UNION ALL SELECT v FROM t")
	if len(res.Rows) != 4 {
		t.Fatalf("UNION ALL rows = %d, want 4", len(res.Rows))
	}
}

func TestDistinctAndOrderLimit(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (v INTEGER)")
	mustExec(t, s, "INSERT INTO t VALUES (3),(1),(3),(2)")
	res := mustExec(t, s, "SELECT DISTINCT v FROM t ORDER BY v DESC LIMIT 2")
	got := rowsToStrings(res)
	if len(got) != 2 || got[0] != "3" || got[1] != "2" {
		t.Fatalf("distinct+order+limit = %v, want [3 2]", got)
	}
	res = mustExec(t, s, "SELECT v FROM t ORDER BY v LIMIT 2 OFFSET 1")
	got = rowsToStrings(res)
	if len(got) != 2 || got[0] != "2" || got[1] != "3" {
		t.Fatalf("limit offset = %v, want [2 3]", got)
	}
}

func TestCaseCastLikeBetween(t *testing.T) {
	s := newTestSession(t)
	res := mustExec(t, s, "SELECT CASE WHEN 1 < 2 THEN 'yes' ELSE 'no' END")
	if res.Rows[0][0].Text() != "yes" {
		t.Fatalf("CASE = %s, want yes", res.Rows[0][0])
	}
	res = mustExec(t, s, "SELECT CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' END")
	if res.Rows[0][0].Text() != "two" {
		t.Fatalf("operand CASE = %s, want two", res.Rows[0][0])
	}
	res = mustExec(t, s, "SELECT CAST('42' AS INTEGER) + 1")
	if res.Rows[0][0].Int() != 43 {
		t.Fatalf("CAST = %s, want 43", res.Rows[0][0])
	}
	res = mustExec(t, s, "SELECT CAST(NULL AS INTEGER)")
	if !res.Rows[0][0].IsNull() {
		t.Fatalf("CAST NULL = %s, want NULL", res.Rows[0][0])
	}
	res = mustExec(t, s, "SELECT CASE WHEN 'assembly' LIKE 'ass%' THEN 1 ELSE 0 END")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("LIKE should match")
	}
	res = mustExec(t, s, "SELECT CASE WHEN 5 BETWEEN 1 AND 10 THEN 1 ELSE 0 END")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("BETWEEN should match")
	}
}

func TestBuiltinFunctions(t *testing.T) {
	s := newTestSession(t)
	res := mustExec(t, s, "SELECT upper('ab'), lower('AB'), length('abc'), abs(-3), coalesce(NULL, 7), substr('abcdef', 2, 3)")
	if got := rowsToStrings(res)[0]; got != "AB|ab|3|3|7|bcd" {
		t.Fatalf("builtins = %q", got)
	}
	res = mustExec(t, s, "SELECT ranges_overlap(1, 5, 4, 10), ranges_overlap(1, 3, 4, 10)")
	if got := rowsToStrings(res)[0]; got != "TRUE|FALSE" {
		t.Fatalf("ranges_overlap = %q", got)
	}
	res = mustExec(t, s, "SELECT sets_overlap('sunroof,sport', 'sport'), sets_overlap('cabrio', 'sport'), sets_overlap('', 'sport')")
	if got := rowsToStrings(res)[0]; got != "TRUE|FALSE|TRUE" {
		t.Fatalf("sets_overlap = %q", got)
	}
}

func TestParameters(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (id INTEGER, name TEXT)")
	mustExec(t, s, "INSERT INTO t VALUES (?, ?)", types.NewInt(1), types.NewText("x"))
	res := mustExec(t, s, "SELECT name FROM t WHERE id = ?", types.NewInt(1))
	if len(res.Rows) != 1 || res.Rows[0][0].Text() != "x" {
		t.Fatalf("param query = %v", rowsToStrings(res))
	}
	if _, err := s.Exec("SELECT * FROM t WHERE id = ?"); err == nil {
		t.Fatal("missing parameter should fail")
	}
}

func TestIndexUse(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (id INTEGER, v TEXT)")
	mustExec(t, s, "CREATE INDEX t_id ON t (id)")
	for i := 0; i < 100; i++ {
		mustExec(t, s, "INSERT INTO t VALUES (?, ?)", types.NewInt(int64(i)), types.NewText("v"))
	}
	res := mustExec(t, s, "SELECT COUNT(*) FROM t WHERE id = 42")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("indexed lookup count = %s, want 1", res.Rows[0][0])
	}
	// Index stays correct under update/delete.
	mustExec(t, s, "UPDATE t SET id = 1000 WHERE id = 42")
	res = mustExec(t, s, "SELECT COUNT(*) FROM t WHERE id = 1000")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("after update count = %s, want 1", res.Rows[0][0])
	}
	mustExec(t, s, "DELETE FROM t WHERE id = 1000")
	res = mustExec(t, s, "SELECT COUNT(*) FROM t WHERE id = 1000")
	if res.Rows[0][0].Int() != 0 {
		t.Fatalf("after delete count = %s, want 0", res.Rows[0][0])
	}
}

func TestRecursiveCTENumbers(t *testing.T) {
	s := newTestSession(t)
	res := mustExec(t, s, `WITH RECURSIVE n (v) AS (
		SELECT 1 UNION SELECT v + 1 FROM n WHERE v < 5
	) SELECT SUM(v) FROM n`)
	if res.Rows[0][0].Int() != 15 {
		t.Fatalf("sum 1..5 = %s, want 15", res.Rows[0][0])
	}
}

func TestRecursiveCTEGraphReachability(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE edge (src INTEGER, dst INTEGER)")
	// Diamond with a cycle: 1->2, 1->3, 2->4, 3->4, 4->2.
	mustExec(t, s, "INSERT INTO edge VALUES (1,2),(1,3),(2,4),(3,4),(4,2)")
	res := mustExec(t, s, `WITH RECURSIVE reach (node) AS (
		SELECT 1 UNION SELECT edge.dst FROM reach JOIN edge ON reach.node = edge.src
	) SELECT node FROM reach ORDER BY 1`)
	got := rowsToStrings(res)
	want := []string{"1", "2", "3", "4"}
	if len(got) != len(want) {
		t.Fatalf("reachability = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("node %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestPaperFigure3 loads the paper's Figure 2 example tables and runs the
// Section 5.2 recursive query verbatim; the result must match Figure 3
// row for row.
func TestPaperFigure3(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.ExecScript(paperFigure2Script); err != nil {
		t.Fatalf("loading figure 2 tables: %v", err)
	}
	res, err := s.Query(paperSection52Query)
	if err != nil {
		t.Fatalf("running section 5.2 query: %v", err)
	}
	got := rowsToStrings(res)
	want := []string{
		"assy|1|Assy1|+|NULL|NULL|NULL|NULL",
		"assy|2|Assy2|+|NULL|NULL|NULL|NULL",
		"assy|3|Assy3|+|NULL|NULL|NULL|NULL",
		"assy|4|Assy4|+|NULL|NULL|NULL|NULL",
		"assy|5|Assy5|-|NULL|NULL|NULL|NULL",
		"comp|101|Comp1||NULL|NULL|NULL|NULL",
		"comp|102|Comp2||NULL|NULL|NULL|NULL",
		"comp|103|Comp3||NULL|NULL|NULL|NULL",
		"comp|104|Comp4||NULL|NULL|NULL|NULL",
		"link|1001|||1|2|1|3",
		"link|1002|||1|3|4|10",
		"link|1003|||2|4|1|10",
		"link|1004|||2|5|1|10",
		"link|1005|||4|101|6|10",
		"link|1006|||4|102|1|5",
		"link|1007|||5|103|1|10",
		"link|1008|||5|104|1|10",
	}
	if len(got) != len(want) {
		t.Fatalf("result has %d rows, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestPaperForAllRows runs the Section 5.3.1 "all assemblies must be
// decomposable" query: assembly 5 is not decomposable, so the result is
// empty ("all-or-nothing" principle).
func TestPaperForAllRows(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.ExecScript(paperFigure2Script); err != nil {
		t.Fatalf("loading figure 2 tables: %v", err)
	}
	res, err := s.Query(paperSection531Query)
	if err != nil {
		t.Fatalf("running section 5.3.1 query: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("result should be empty (Assy5 is not decomposable), got %d rows", len(res.Rows))
	}
}

// TestPaperExistsStructure runs the Section 5.3.2 query: components are
// visible only when specified by at least one document.
func TestPaperExistsStructure(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.ExecScript(paperFigure2Script); err != nil {
		t.Fatalf("loading figure 2 tables: %v", err)
	}
	// Specifications for components 101 and 103 only.
	mustExec(t, s, "INSERT INTO spec VALUES ('spec', 9001, 'Spec1'), ('spec', 9002, 'Spec3')")
	mustExec(t, s, "INSERT INTO specified_by VALUES (101, 9001), (103, 9002)")
	res, err := s.Query(paperSection532Query)
	if err != nil {
		t.Fatalf("running section 5.3.2 query: %v", err)
	}
	var comps []string
	for _, row := range res.Rows {
		if row[0].Text() == "comp" {
			comps = append(comps, row[1].String())
		}
	}
	if len(comps) != 2 || comps[0] != "101" || comps[1] != "103" {
		t.Fatalf("visible components = %v, want [101 103]", comps)
	}
}

// TestPaperTreeAggregate runs the Section 5.3.3 query: the user may only
// retrieve trees containing at most ten assemblies; the example tree has
// five, so the whole tree comes back.
func TestPaperTreeAggregate(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.ExecScript(paperFigure2Script); err != nil {
		t.Fatalf("loading figure 2 tables: %v", err)
	}
	res, err := s.Query(paperSection533Query)
	if err != nil {
		t.Fatalf("running section 5.3.3 query: %v", err)
	}
	if len(res.Rows) != 17 {
		t.Fatalf("tree-aggregate query returned %d rows, want 17", len(res.Rows))
	}
	// Tighten the limit to 4 assemblies: now nothing comes back.
	strict := strings.ReplaceAll(paperSection533Query, "<= 10", "<= 4")
	res, err = s.Query(strict)
	if err != nil {
		t.Fatalf("running strict variant: %v", err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("strict tree-aggregate query returned %d rows, want 0", len(res.Rows))
	}
}

// planOf returns the EXPLAIN output of a statement as one string.
func planOf(t *testing.T, s *Session, sql string, params ...Value) string {
	t.Helper()
	var sb strings.Builder
	for _, r := range mustExec(t, s, "EXPLAIN "+sql, params...).Rows {
		sb.WriteString(r[0].Text() + "\n")
	}
	return sb.String()
}

// TestExplain: the plan names the access path and the join method that
// run — the same access line for a SELECT, an UPDATE and a DELETE of the
// same key, a scan where no index covers the column.
func TestExplain(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
	mustExec(t, s, "CREATE TABLE assy (obid INTEGER PRIMARY KEY, name TEXT)")
	mustExec(t, s, "CREATE TABLE link (left INTEGER, right INTEGER)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 'a'), (2, 'b')")

	const keyed = "INDEX t_pk ON t (id): 1 key(s)\n"
	for _, stmt := range []string{
		"SELECT * FROM t WHERE id = 1",
		"UPDATE t SET v = 'x' WHERE id = 1",
		"DELETE FROM t WHERE id = 1",
		"SELECT * FROM t WHERE id = ?",
	} {
		if plan := planOf(t, s, stmt, types.NewInt(1)); !strings.Contains(plan, keyed) {
			t.Errorf("%s: plan lacks %q:\n%s", stmt, keyed, plan)
		}
	}
	if n := mustExec(t, s, "SELECT COUNT(*) FROM t").Rows[0][0].Int(); n != 2 {
		t.Fatalf("EXPLAIN UPDATE / DELETE changed the table: %d rows, want 2", n)
	}
	for stmt, want := range map[string]string{
		"SELECT * FROM t WHERE v = 'a'":                               "SCAN t (2 rows), v among 1 key(s)\n",
		"SELECT * FROM t WHERE id IN (1, 2, 2, NULL)":                 "INDEX t_pk ON t (id): 3 key(s)\n",
		"SELECT * FROM t WHERE id = 'abc'":                            "SCAN t (2 rows), id among 1 key(s)\n",
		"SELECT * FROM t WHERE id + 0 = 1":                            "SCAN t (2 rows)\n  FILTER ((id + 0) = 1)\n",
		"DELETE FROM t WHERE id > 1":                                  "SCAN t (2 rows)\n  FILTER (id > 1)\n",
		"SELECT * FROM link JOIN assy ON link.right = assy.obid":      "INNER INDEX JOIN assy USING assy_pk ON (link.right = assy.obid)\n",
		"SELECT * FROM assy JOIN link ON link.right = assy.obid":      "INNER HASH JOIN ON (link.right = assy.obid)\n    SCAN link (0 rows)\n",
		"SELECT * FROM assy LEFT JOIN link ON link.right > assy.obid": "LEFT NESTED LOOP ON (link.right > assy.obid)\n",
		"SELECT * FROM link, assy WHERE link.right = assy.obid":       "INNER INDEX JOIN assy USING assy_pk ON (link.right = assy.obid)\n",
		// A subquery that reads nothing from outside itself is a key set,
		// planned under the access it keys; a correlated one, a failing
		// one and NOT IN stay a per-row filter.
		"SELECT * FROM t WHERE id IN (SELECT right FROM link)":                               "INDEX t_pk ON t (id): keys from (SELECT right FROM link)\n    SELECT\n      SCAN link (0 rows)\n",
		"SELECT * FROM t WHERE v IN (SELECT name FROM assy WHERE obid = 7) AND id > 0":       "SCAN t (2 rows), v among keys from (SELECT name FROM assy WHERE (obid = 7))\n    SELECT\n      INDEX assy_pk ON assy (obid): 1 key(s)\n  FILTER (id > 0)\n",
		"DELETE FROM t WHERE v IN (SELECT name FROM assy) AND id IN (SELECT left FROM link)": "INDEX t_pk ON t (id): keys from (SELECT left FROM link), v among keys from (SELECT name FROM assy)\n    SELECT\n      SCAN assy (0 rows)\n    SELECT\n      SCAN link (0 rows)\n",
		"SELECT * FROM t WHERE id IN (SELECT left FROM link WHERE link.right = t.id)":        "SCAN t (2 rows)\n  FILTER (id IN (SELECT left FROM link WHERE (link.right = t.id)))\n",
		"SELECT * FROM t WHERE id IN (SELECT left, right FROM link)":                         "SCAN t (2 rows)\n  FILTER (id IN (SELECT left, right FROM link))\n",
		"SELECT * FROM t WHERE id NOT IN (SELECT left FROM link)":                            "SCAN t (2 rows)\n  FILTER (id NOT IN (SELECT left FROM link))\n",
	} {
		if plan := planOf(t, s, stmt); !strings.Contains(plan, want) {
			t.Errorf("%s: plan lacks %q:\n%s", stmt, want, plan)
		}
	}
	mustExec(t, s, "CREATE INDEX link_right_idx ON link (right)")
	if plan := planOf(t, s, "SELECT * FROM assy JOIN link ON link.right = assy.obid"); !strings.Contains(plan, "INNER INDEX JOIN link USING link_right_idx") {
		t.Errorf("a new index must show in the next plan:\n%s", plan)
	}
	if _, err := s.Exec("EXPLAIN SELECT * FROM nosuch"); err == nil {
		t.Error("EXPLAIN of a statement that cannot run must fail like the statement")
	}
}

func TestUncorrelatedScalarSubqueryInWhere(t *testing.T) {
	s := NewDB().NewSession()
	mustExec(t, s, "CREATE TABLE t (v INTEGER)")
	mustExec(t, s, "INSERT INTO t VALUES (1),(2),(3)")
	res := mustExec(t, s, "SELECT COUNT(*) FROM t WHERE (SELECT MAX(v) FROM t) = 3")
	if got := res.Rows[0][0].Int(); got != 3 {
		t.Fatalf("COUNT(*) = %d, want 3", got)
	}
}

// paperFigure2Script creates and loads the example tables of Figure 2
// (plus the spec/specified_by tables used in Section 5.3.2).
const paperFigure2Script = `
CREATE TABLE assy (type VARCHAR(8), obid INTEGER PRIMARY KEY, name VARCHAR(32), dec VARCHAR(1));
CREATE TABLE comp (type VARCHAR(8), obid INTEGER PRIMARY KEY, name VARCHAR(32));
CREATE TABLE link (type VARCHAR(8), obid INTEGER PRIMARY KEY, left INTEGER, right INTEGER,
                   eff_from INTEGER, eff_to INTEGER);
CREATE TABLE spec (type VARCHAR(8), obid INTEGER PRIMARY KEY, name VARCHAR(32));
CREATE TABLE specified_by (left INTEGER, right INTEGER);
CREATE INDEX link_left ON link (left);

INSERT INTO assy VALUES
  ('assy', 1, 'Assy1', '+'), ('assy', 2, 'Assy2', '+'), ('assy', 3, 'Assy3', '+'),
  ('assy', 4, 'Assy4', '+'), ('assy', 5, 'Assy5', '-'), ('assy', 6, 'Assy6', '-'),
  ('assy', 7, 'Assy7', '-'), ('assy', 8, 'Assy8', '-');
INSERT INTO comp VALUES
  ('comp', 101, 'Comp1'), ('comp', 102, 'Comp2'), ('comp', 103, 'Comp3'),
  ('comp', 104, 'Comp4'), ('comp', 105, 'Comp5'), ('comp', 106, 'Comp6'),
  ('comp', 107, 'Comp7');
INSERT INTO link VALUES
  ('link', 1001, 1, 2, 1, 3), ('link', 1002, 1, 3, 4, 10),
  ('link', 1003, 2, 4, 1, 10), ('link', 1004, 2, 5, 1, 10),
  ('link', 1005, 4, 101, 6, 10), ('link', 1006, 4, 102, 1, 5),
  ('link', 1007, 5, 103, 1, 10), ('link', 1008, 5, 104, 1, 10);
`

// paperSection52Query is the Section 5.2 recursive query (verbatim except
// for whitespace): collect the tree under assembly 1 into the unified
// result type, then add the connecting links.
const paperSection52Query = `
WITH RECURSIVE rtbl (type, obid, name, dec) AS
 (SELECT type, obid, name, dec
    FROM assy
    WHERE assy.obid = 1
  UNION
  SELECT assy.type, assy.obid, assy.name, assy.dec
    FROM rtbl JOIN link ON rtbl.obid = link.left
              JOIN assy ON link.right = assy.obid
  UNION
  SELECT comp.type, comp.obid, comp.name, ''
    FROM rtbl JOIN link ON rtbl.obid = link.left
              JOIN comp ON link.right = comp.obid
 )
SELECT type, obid, name, dec AS "DEC",
       cast (NULL AS integer) AS "LEFT",
       cast (NULL AS integer) AS "RIGHT",
       cast (NULL AS integer) AS "EFF_FROM",
       cast (NULL AS integer) AS "EFF_TO"
  FROM rtbl
UNION
SELECT type, obid, '' AS "NAME", '' AS "DEC",
       left, right, eff_from, eff_to
  FROM link
  WHERE (left IN (SELECT obid FROM rtbl)
     AND right IN (SELECT obid FROM rtbl))
ORDER BY 1, 2
`

// paperSection531Query adds the ∀rows condition "all assemblies in the
// tree must be decomposable" to the recursive query.
const paperSection531Query = `
WITH RECURSIVE rtbl (type, obid, name, dec) AS
 (SELECT type, obid, name, dec FROM assy WHERE assy.obid = 1
  UNION
  SELECT assy.type, assy.obid, assy.name, assy.dec
    FROM rtbl JOIN link ON rtbl.obid = link.left
              JOIN assy ON link.right = assy.obid
  UNION
  SELECT comp.type, comp.obid, comp.name, ''
    FROM rtbl JOIN link ON rtbl.obid = link.left
              JOIN comp ON link.right = comp.obid
 )
SELECT type, obid, name, dec AS "DEC",
       cast (NULL AS integer) AS "LEFT",
       cast (NULL AS integer) AS "RIGHT",
       cast (NULL AS integer) AS "EFF_FROM",
       cast (NULL AS integer) AS "EFF_TO"
  FROM rtbl
  WHERE NOT EXISTS (SELECT * FROM rtbl WHERE (type = 'assy' AND dec != '+'))
UNION
SELECT type, obid, '' AS "NAME", '' AS "DEC",
       left, right, eff_from, eff_to
  FROM link
  WHERE (left IN (SELECT obid FROM rtbl)
     AND right IN (SELECT obid FROM rtbl))
    AND NOT EXISTS (SELECT * FROM rtbl WHERE (type = 'assy' AND dec != '+'))
ORDER BY 1, 2
`

// paperSection532Query embeds the ∃structure condition in the recursive
// part: components join only when specified by at least one document.
const paperSection532Query = `
WITH RECURSIVE rtbl (type, obid, name, dec) AS
 (SELECT type, obid, name, dec FROM assy WHERE assy.obid = 1
  UNION
  SELECT assy.type, assy.obid, assy.name, assy.dec
    FROM rtbl JOIN link ON rtbl.obid = link.left
              JOIN assy ON link.right = assy.obid
  UNION
  SELECT comp.type, comp.obid, comp.name, ''
    FROM rtbl JOIN link ON rtbl.obid = link.left
              JOIN comp ON link.right = comp.obid
    WHERE EXISTS (SELECT * FROM specified_by AS s JOIN spec
                    ON s.right = spec.obid WHERE s.left = comp.obid)
 )
SELECT type, obid, name, dec AS "DEC",
       cast (NULL AS integer) AS "LEFT",
       cast (NULL AS integer) AS "RIGHT",
       cast (NULL AS integer) AS "EFF_FROM",
       cast (NULL AS integer) AS "EFF_TO"
  FROM rtbl
ORDER BY 1, 2
`

// paperSection533Query applies the tree-aggregate condition "at most ten
// assemblies in the tree".
const paperSection533Query = `
WITH RECURSIVE rtbl (type, obid, name, dec) AS
 (SELECT type, obid, name, dec FROM assy WHERE assy.obid = 1
  UNION
  SELECT assy.type, assy.obid, assy.name, assy.dec
    FROM rtbl JOIN link ON rtbl.obid = link.left
              JOIN assy ON link.right = assy.obid
  UNION
  SELECT comp.type, comp.obid, comp.name, ''
    FROM rtbl JOIN link ON rtbl.obid = link.left
              JOIN comp ON link.right = comp.obid
 )
SELECT type, obid, name, dec AS "DEC",
       cast (NULL AS integer) AS "LEFT",
       cast (NULL AS integer) AS "RIGHT",
       cast (NULL AS integer) AS "EFF_FROM",
       cast (NULL AS integer) AS "EFF_TO"
  FROM rtbl
  WHERE (SELECT COUNT(*) FROM rtbl WHERE type = 'assy') <= 10
UNION
SELECT type, obid, '' AS "NAME", '' AS "DEC",
       left, right, eff_from, eff_to
  FROM link
  WHERE (left IN (SELECT obid FROM rtbl)
     AND right IN (SELECT obid FROM rtbl))
    AND (SELECT COUNT(*) FROM rtbl WHERE type = 'assy') <= 10
ORDER BY 1, 2
`
