package parser

import (
	"strings"
	"testing"

	"pdmtune/internal/minisql/ast"
)

func parse(t *testing.T, src string) ast.Statement {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return st
}

// TestRoundTrip: for a broad sample of the dialect, parsing the printed
// form of a parsed statement yields the same printed form (printer and
// grammar agree — the property the PDM query modificator depends on).
func TestRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT 1",
		"SELECT a, b AS \"X\" FROM t",
		"SELECT * FROM t WHERE (a = 1)",
		"SELECT t.* FROM t AS x",
		"SELECT a FROM t WHERE ((a > 1) AND (b < 2))",
		"SELECT a FROM t WHERE (a IS NOT NULL)",
		"SELECT a FROM t WHERE (a BETWEEN 1 AND 2)",
		"SELECT a FROM t WHERE (a LIKE 'x%')",
		"SELECT a FROM t WHERE (a IN (1, 2, 3))",
		"SELECT a FROM t WHERE (a NOT IN (SELECT b FROM u))",
		"SELECT a FROM t WHERE (EXISTS (SELECT 1))",
		"SELECT a FROM t WHERE (NOT EXISTS (SELECT 1))",
		"SELECT COUNT(*) FROM t GROUP BY a HAVING (COUNT(*) > 1)",
		"SELECT SUM(DISTINCT a) FROM t",
		"SELECT CAST(NULL AS INTEGER) AS \"LEFT\" FROM t",
		"SELECT CASE WHEN (a = 1) THEN 'x' ELSE 'y' END FROM t",
		"SELECT CASE a WHEN 1 THEN 'x' END FROM t",
		"SELECT a FROM t JOIN u ON (t.id = u.id)",
		"SELECT a FROM t LEFT JOIN u ON (t.id = u.id)",
		"SELECT a FROM t, u WHERE (t.id = u.id)",
		"SELECT a FROM (SELECT b FROM u) AS v",
		"SELECT a FROM t UNION SELECT b FROM u",
		"SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY 1 LIMIT 10 OFFSET 2",
		"WITH x AS (SELECT 1) SELECT * FROM x",
		"WITH RECURSIVE r (n) AS (SELECT 1 UNION SELECT (n + 1) FROM r WHERE (n < 5)) SELECT * FROM r",
		"INSERT INTO t VALUES (1, 'a'), (2, 'b')",
		"INSERT INTO t (a, b) VALUES (?, ?)",
		"UPDATE t SET a = 1, b = (b + 1) WHERE (c = 2)",
		"DELETE FROM t WHERE (a = 1)",
		"CREATE TABLE t (a INTEGER NOT NULL PRIMARY KEY, b VARCHAR(10), c FLOAT DEFAULT 0)",
		"CREATE INDEX i ON t (a)",
		"CREATE UNIQUE INDEX i ON t (a)",
		"DROP TABLE IF EXISTS t",
		"CALL p(1, 'x')",
		"SELECT lower(a) FROM t WHERE (f(a, b) = 1)",
		"SELECT a FROM t WHERE ((SELECT MAX(b) FROM u) = 3)",
	}
	for _, src := range srcs {
		st1 := parse(t, src)
		printed := st1.String()
		st2, err := Parse(printed)
		if err != nil {
			t.Errorf("reparse of %q failed: %v\n  printed: %s", src, err, printed)
			continue
		}
		if st2.String() != printed {
			t.Errorf("round trip diverged for %q:\n  1: %s\n  2: %s", src, printed, st2.String())
		}
	}
}

func TestOperatorPrecedence(t *testing.T) {
	st := parse(t, "SELECT 1 + 2 * 3")
	sel := st.(*ast.Select).Body.(*ast.SelectCore)
	if got := sel.Items[0].Expr.String(); got != "(1 + (2 * 3))" {
		t.Errorf("precedence: %s", got)
	}
	st = parse(t, "SELECT a OR b AND c")
	sel = st.(*ast.Select).Body.(*ast.SelectCore)
	if got := sel.Items[0].Expr.String(); got != "(a OR (b AND c))" {
		t.Errorf("AND binds tighter than OR: %s", got)
	}
	st = parse(t, "SELECT NOT a = b")
	sel = st.(*ast.Select).Body.(*ast.SelectCore)
	if got := sel.Items[0].Expr.String(); got != "(NOT (a = b))" {
		t.Errorf("NOT applies to comparison: %s", got)
	}
}

func TestLeftAsColumnName(t *testing.T) {
	// The paper's link table calls its columns "left" and "right"; LEFT
	// is also the join keyword.
	st := parse(t, "SELECT left, right FROM link WHERE left = 1")
	sel := st.(*ast.Select).Body.(*ast.SelectCore)
	if sel.Items[0].Expr.(*ast.ColumnRef).Column != "left" {
		t.Error("bare 'left' should parse as a column")
	}
	parse(t, "SELECT link.left FROM link")
	parse(t, "CREATE TABLE link (left INTEGER, right INTEGER)")
	parse(t, "INSERT INTO link (left, right) VALUES (1, 2)")
	parse(t, "UPDATE link SET left = 3")
	// And LEFT JOIN still works.
	parse(t, "SELECT * FROM a LEFT JOIN b ON a.x = b.y")
	parse(t, "SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y")
}

func TestParamIndices(t *testing.T) {
	st := parse(t, "SELECT ? , ? FROM t WHERE a = ?")
	sel := st.(*ast.Select).Body.(*ast.SelectCore)
	p0 := sel.Items[0].Expr.(*ast.Param)
	p1 := sel.Items[1].Expr.(*ast.Param)
	if p0.Index != 0 || p1.Index != 1 {
		t.Errorf("param indices %d, %d; want 0, 1", p0.Index, p1.Index)
	}
	n, err := NumParams("SELECT ?, ?, ?")
	if err != nil || n != 3 {
		t.Errorf("NumParams = %d, %v", n, err)
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript("SELECT 1; ; SELECT 2;")
	if err != nil || len(stmts) != 2 {
		t.Fatalf("ParseScript: %d stmts, %v", len(stmts), err)
	}
}

func TestParseExprStandalone(t *testing.T) {
	e, err := ParseExpr("assy.make_or_buy <> 'buy'")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(assy.make_or_buy <> 'buy')" {
		t.Errorf("printed: %s", e.String())
	}
	if _, err := ParseExpr("a = "); err == nil {
		t.Error("truncated expression must fail")
	}
	if _, err := ParseExpr("a = 1 extra"); err == nil {
		t.Error("trailing tokens must fail")
	}
}

func TestParseErrorsAreInformative(t *testing.T) {
	cases := []string{
		"SELEC 1",
		"SELECT FROM",
		"SELECT * FROM",
		"INSERT t VALUES (1)",
		"CREATE TABLE t",
		"CREATE TABLE t (a BLOB)",
		"SELECT * FROM t WHERE",
		"WITH x AS SELECT 1 SELECT 2",
		"SELECT CASE END",
		"SELECT AVG(*) FROM t",
		"UPDATE t SET",
		"SELECT 1 LIMIT",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q must not parse", src)
		} else if !strings.Contains(err.Error(), "line") {
			t.Errorf("%q: error lacks position info: %v", src, err)
		}
	}
}

func TestPaperQueriesParse(t *testing.T) {
	// The full Section 5.2 query (as in the engine test) must parse, and
	// the printed form must re-parse.
	src := `
WITH RECURSIVE rtbl (type, obid, name, dec) AS
 (SELECT type, obid, name, dec FROM assy WHERE assy.obid = 1
  UNION
  SELECT assy.type, assy.obid, assy.name, assy.dec
    FROM rtbl JOIN link ON rtbl.obid = link.left
              JOIN assy ON link.right = assy.obid
  UNION
  SELECT comp.type, comp.obid, comp.name, ''
    FROM rtbl JOIN link ON rtbl.obid = link.left
              JOIN comp ON link.right = comp.obid)
SELECT type, obid, name, dec AS "DEC",
       cast (NULL AS integer) AS "LEFT",
       cast (NULL AS integer) AS "RIGHT",
       cast (NULL AS integer) AS "EFF_FROM",
       cast (NULL AS integer) AS "EFF_TO"
  FROM rtbl
UNION
SELECT type, obid, '' AS "NAME", '' AS "DEC", left, right, eff_from, eff_to
  FROM link
  WHERE (left IN (SELECT obid FROM rtbl) AND right IN (SELECT obid FROM rtbl))
ORDER BY 1, 2`
	st := parse(t, src)
	if _, err := Parse(st.String()); err != nil {
		t.Fatalf("printed paper query does not reparse: %v", err)
	}
	sel := st.(*ast.Select)
	if sel.With == nil || !sel.With.Recursive || len(sel.With.CTEs) != 1 {
		t.Error("WITH RECURSIVE structure wrong")
	}
	if len(sel.OrderBy) != 2 || sel.OrderBy[0].Position != 1 {
		t.Error("ORDER BY positions wrong")
	}
	if _, ok := sel.Body.(*ast.SetOp); !ok {
		t.Error("outer body should be a UNION")
	}
}

func TestSelectItemImplicitAlias(t *testing.T) {
	st := parse(t, "SELECT a b FROM t")
	sel := st.(*ast.Select).Body.(*ast.SelectCore)
	if sel.Items[0].Alias != "b" {
		t.Errorf("implicit alias = %q, want b", sel.Items[0].Alias)
	}
}

func TestNegativeNumbersFold(t *testing.T) {
	st := parse(t, "SELECT -5, -2.5")
	sel := st.(*ast.Select).Body.(*ast.SelectCore)
	if sel.Items[0].Expr.String() != "-5" {
		t.Errorf("folded int: %s", sel.Items[0].Expr)
	}
	if sel.Items[1].Expr.String() != "-2.5" {
		t.Errorf("folded float: %s", sel.Items[1].Expr)
	}
}

func TestExplainParses(t *testing.T) {
	st := parse(t, "EXPLAIN SELECT * FROM t")
	if _, ok := st.(*ast.Explain); !ok {
		t.Errorf("got %T", st)
	}
}

func TestInsertFromSelect(t *testing.T) {
	st := parse(t, "INSERT INTO t (a) SELECT b FROM u")
	ins := st.(*ast.Insert)
	if ins.Select == nil || len(ins.Cols) != 1 {
		t.Error("INSERT ... SELECT structure wrong")
	}
}
