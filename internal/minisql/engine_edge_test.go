package minisql

import (
	"math"
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"pdmtune/internal/minisql/types"
)

// Error-path coverage: the engine must fail loudly and precisely, never
// silently return wrong data.

func TestErrorUnknownTableAndColumn(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (a INTEGER)")
	for _, q := range []string{
		"SELECT * FROM missing",
		"SELECT nope FROM t",
		"SELECT t.nope FROM t",
		"SELECT a FROM t WHERE missing.a = 1",
		"INSERT INTO missing VALUES (1)",
		"INSERT INTO t (nope) VALUES (1)",
		"UPDATE t SET nope = 1",
		"UPDATE missing SET a = 1",
		"DELETE FROM missing",
		"CREATE INDEX i ON missing (a)",
		"CREATE INDEX i ON t (nope)",
		"DROP TABLE missing",
		"CALL nope()",
	} {
		if _, err := s.Exec(q); err == nil {
			t.Errorf("%q must fail", q)
		}
	}
}

func TestErrorAmbiguousColumn(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE a (x INTEGER)")
	mustExec(t, s, "CREATE TABLE b (x INTEGER)")
	mustExec(t, s, "INSERT INTO a VALUES (1)")
	mustExec(t, s, "INSERT INTO b VALUES (1)")
	if _, err := s.Exec("SELECT x FROM a JOIN b ON a.x = b.x"); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous reference must fail, got %v", err)
	}
}

func TestErrorScalarSubqueryCardinality(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (a INTEGER)")
	mustExec(t, s, "INSERT INTO t VALUES (1), (2)")
	if _, err := s.Exec("SELECT (SELECT a FROM t)"); err == nil {
		t.Error("scalar subquery with two rows must fail")
	}
	if _, err := s.Exec("SELECT (SELECT a, a FROM t)"); err == nil {
		t.Error("scalar subquery with two columns must fail")
	}
}

func TestErrorUnionArity(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.Exec("SELECT 1 UNION SELECT 1, 2"); err == nil {
		t.Error("UNION arity mismatch must fail")
	}
}

func TestErrorOrderLimit(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (a INTEGER)")
	if _, err := s.Exec("SELECT a FROM t ORDER BY 2"); err == nil {
		t.Error("ORDER BY beyond output columns must fail")
	}
	if _, err := s.Exec("SELECT a FROM t LIMIT -1"); err == nil {
		t.Error("negative LIMIT must fail")
	}
	if _, err := s.Exec("SELECT a FROM t LIMIT 'x'"); err == nil {
		t.Error("non-integer LIMIT must fail")
	}
}

func TestErrorRecursiveCTEShape(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE e (a INTEGER)")
	// No seed branch.
	if _, err := s.Exec("WITH RECURSIVE r (n) AS (SELECT n FROM r) SELECT * FROM r"); err == nil {
		t.Error("recursive CTE without seed must fail")
	}
	// ORDER BY inside the recursive CTE.
	if _, err := s.Exec("WITH RECURSIVE r (n) AS (SELECT 1 UNION SELECT n + 1 FROM r ORDER BY 1) SELECT * FROM r"); err == nil {
		t.Error("ORDER BY inside recursive CTE must fail")
	}
	// Arity mismatch between CTE columns and the query.
	if _, err := s.Exec("WITH r (a, b) AS (SELECT 1) SELECT * FROM r"); err == nil {
		t.Error("CTE column arity mismatch must fail")
	}
}

func TestErrorAggregateMisuse(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (a INTEGER, s TEXT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 'x')")
	if _, err := s.Exec("SELECT SUM(s) FROM t"); err == nil {
		t.Error("SUM over text must fail")
	}
	if _, err := s.Exec("SELECT a FROM t WHERE COUNT(*) > 1"); err == nil {
		t.Error("aggregate in WHERE must fail")
	}
}

func TestErrorTypeMismatches(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (a INTEGER, s TEXT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 'x')")
	if _, err := s.Exec("SELECT a + s FROM t"); err == nil {
		t.Error("int + text must fail")
	}
	if _, err := s.Exec("SELECT a FROM t WHERE a > 'x'"); err == nil {
		t.Error("int > text comparison must fail")
	}
	if _, err := s.Exec("SELECT CAST('nope' AS INTEGER)"); err == nil {
		t.Error("bad cast must fail")
	}
	// A float no INTEGER can hold — beyond int64, +Inf, NaN — does not
	// cast, nor is it stored in an INTEGER column.
	for _, q := range []string{
		"SELECT CAST(1e300 AS INTEGER)",
		"SELECT CAST(-1e300 AS INTEGER)",
		"SELECT CAST(1e300 * 1e300 AS INTEGER)",
		"SELECT CAST(1e300 * 1e300 - 1e300 * 1e300 AS INTEGER)",
		"INSERT INTO t VALUES (1e300, 'y')",
	} {
		if res, err := s.Exec(q); err == nil || !strings.Contains(err.Error(), "to INTEGER") {
			t.Errorf("%s = %v, %v; want a cannot-cast error", q, res, err)
		}
	}
	if res := mustExec(t, s, "SELECT CAST(-2.9 AS INTEGER), CAST(2.9 AS INTEGER), COUNT(*) FROM t"); res.Rows[0][0].Int() != -2 || res.Rows[0][1].Int() != 2 || res.Rows[0][2].Int() != 1 {
		t.Errorf("CAST(-2.9), CAST(2.9), rows = %v; want -2, 2, 1", res.Rows[0])
	}
}

// TestOnePredicateOneOutcome: whether a comparison between incomparable
// kinds is an error must not depend on the path the planner picks for
// it. An index or a join hash answers a key only when it can answer it
// exactly; otherwise the predicate is evaluated, and raises what the
// unoptimized form raises — on empty tables, nothing.
func TestOnePredicateOneOutcome(t *testing.T) {
	statements := []string{
		"SELECT * FROM t WHERE id + 0 = 'abc'", // never optimized: the reference outcome
		"SELECT * FROM t WHERE id = 'abc'",
		"SELECT * FROM t WHERE 'abc' = id",
		"SELECT * FROM t WHERE name = 'a' AND id = 'abc'",
		"SELECT * FROM t JOIN u ON t.id = u.label", // hash
		"SELECT * FROM u JOIN t ON u.label = t.id", // index on t.id
		"SELECT * FROM u LEFT JOIN t ON u.label = t.id",
		"SELECT * FROM t, u WHERE t.id = u.label",
		"SELECT * FROM t JOIN u ON t.id + 0 = u.label", // nested loop
		"UPDATE t SET name = 'z' WHERE id = 'abc'",
		"DELETE FROM t WHERE id = 'abc'",
	}
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
	mustExec(t, s, "CREATE TABLE u (k INTEGER, label TEXT)")
	for _, sql := range statements {
		res, err := s.Exec(sql)
		if err != nil || len(res.Rows) != 0 || res.RowsAffected != 0 {
			t.Errorf("empty tables: %s: %v, want no rows and no error", sql, err)
		}
	}
	mustExec(t, s, "INSERT INTO t VALUES (1, 'a'), (2, 'b')")
	mustExec(t, s, "INSERT INTO u VALUES (1, 'a'), (2, NULL)")
	for _, sql := range statements {
		if _, err := s.Exec(sql); err == nil || !strings.Contains(err.Error(), "types: cannot compare") {
			t.Errorf("%s: error %v, want the comparison error", sql, err)
		}
	}
	// IN never matches an item it cannot compare, by any path, and NULL
	// join keys meet no comparison at all.
	for sql, want := range map[string]int{
		"SELECT * FROM t WHERE id IN ('abc', 2)":     1,
		"SELECT * FROM t WHERE id + 0 IN ('abc', 2)": 1,
		"SELECT * FROM u JOIN t ON u.k = t.id":       2,
	} {
		if res, err := s.Exec(sql); err != nil || len(res.Rows) != want {
			t.Errorf("%s: %v, want %d rows", sql, err, want)
		}
	}
	if n := mustExec(t, s, "SELECT COUNT(*) FROM t").Rows[0][0].Int(); n != 2 {
		t.Errorf("a failed write changed the table: %d rows", n)
	}
}

func TestNestedCTEs(t *testing.T) {
	s := newTestSession(t)
	res := mustExec(t, s, `WITH a AS (SELECT 1 AS x), b AS (SELECT x + 1 AS y FROM a)
		SELECT y FROM b`)
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("chained CTEs = %s", res.Rows[0][0])
	}
	// Shadowing: a CTE hides a real table of the same name.
	mustExec(t, s, "CREATE TABLE real_t (v INTEGER)")
	mustExec(t, s, "INSERT INTO real_t VALUES (100)")
	res = mustExec(t, s, "WITH real_t AS (SELECT 1 AS v) SELECT v FROM real_t")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("CTE must shadow the stored table, got %s", res.Rows[0][0])
	}
	// After the query the table is visible again.
	res = mustExec(t, s, "SELECT v FROM real_t")
	if res.Rows[0][0].Int() != 100 {
		t.Fatalf("table binding not restored, got %s", res.Rows[0][0])
	}
}

func TestDerivedTable(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (a INTEGER)")
	mustExec(t, s, "INSERT INTO t VALUES (1), (2), (3)")
	res := mustExec(t, s, "SELECT v.m FROM (SELECT MAX(a) AS m FROM t) AS v")
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("derived table = %s", res.Rows[0][0])
	}
}

func TestInsertFromSelectExecutes(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE src (a INTEGER)")
	mustExec(t, s, "CREATE TABLE dst (a INTEGER)")
	mustExec(t, s, "INSERT INTO src VALUES (1), (2)")
	res := mustExec(t, s, "INSERT INTO dst SELECT a + 10 FROM src")
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	res = mustExec(t, s, "SELECT SUM(a) FROM dst")
	if res.Rows[0][0].Int() != 23 {
		t.Fatalf("sum = %s", res.Rows[0][0])
	}
}

func TestGroupByExpression(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (a INTEGER)")
	mustExec(t, s, "INSERT INTO t VALUES (1), (2), (3), (4)")
	res := mustExec(t, s, "SELECT a % 2, COUNT(*) FROM t GROUP BY a % 2 ORDER BY 1")
	got := rowsToStrings(res)
	if len(got) != 2 || got[0] != "0|2" || got[1] != "1|2" {
		t.Fatalf("group by expr = %v", got)
	}
}

func TestExplainRecursive(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE link (left INTEGER, right INTEGER)")
	res := mustExec(t, s, `EXPLAIN WITH RECURSIVE r (n) AS (
		SELECT 1 UNION SELECT link.right FROM r JOIN link ON r.n = link.left
	) SELECT * FROM r`)
	plan := ""
	for _, row := range res.Rows {
		plan += row[0].Text() + "\n"
	}
	if !strings.Contains(plan, "RECURSIVE CTE") || !strings.Contains(plan, "SCAN link") {
		t.Errorf("plan lacks structure:\n%s", plan)
	}
}

// TestLikeMatchesRegexpProperty: LIKE agrees with the equivalent regexp
// on random inputs over a small alphabet.
func TestLikeMatchesRegexpProperty(t *testing.T) {
	s := newTestSession(t)
	toRegexp := func(pattern string) *regexp.Regexp {
		var sb strings.Builder
		sb.WriteString("(?s)^")
		for _, r := range pattern {
			switch r {
			case '%':
				sb.WriteString(".*")
			case '_':
				sb.WriteString(".")
			default:
				sb.WriteString(regexp.QuoteMeta(string(r)))
			}
		}
		sb.WriteString("$")
		return regexp.MustCompile(sb.String())
	}
	alphabet := []byte("ab%_")
	small := func(n uint8, len int) string {
		out := make([]byte, len)
		v := int(n)
		for i := range out {
			out[i] = alphabet[v%len]
			v /= 3
		}
		return string(out)
	}
	_ = small
	f := func(pat, str uint32) bool {
		mk := func(v uint32, allowWild bool) string {
			chars := "ab"
			if allowWild {
				chars = "ab%_"
			}
			out := []byte{}
			for i := 0; i < 6; i++ {
				out = append(out, chars[int(v)%len(chars)])
				v /= uint32(len(chars))
			}
			return string(out)
		}
		p := mk(pat, true)
		str2 := mk(str, false)
		res, err := s.Exec("SELECT CASE WHEN ? LIKE ? THEN 1 ELSE 0 END",
			types.NewText(str2), types.NewText(p))
		if err != nil {
			return false
		}
		want := int64(0)
		if toRegexp(p).MatchString(str2) {
			want = 1
		}
		return res.Rows[0][0].Int() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestStoredProcedureRoundTrip(t *testing.T) {
	db := NewDB()
	db.RegisterProc("add_one", func(s *Session, args []Value) (*Result, error) {
		return &Result{
			Cols: []string{"v"},
			Rows: []Row{{types.NewInt(args[0].Int() + 1)}},
		}, nil
	})
	s := db.NewSession()
	res := mustExec(t, s, "CALL add_one(41)")
	if res.Rows[0][0].Int() != 42 {
		t.Fatalf("proc result = %s", res.Rows[0][0])
	}
}

func TestUserRegisteredFunction(t *testing.T) {
	db := NewDB()
	db.RegisterFunc("twice", func(args []Value) (Value, error) {
		return types.NewInt(args[0].Int() * 2), nil
	})
	s := db.NewSession()
	res := mustExec(t, s, "SELECT twice(21)")
	if res.Rows[0][0].Int() != 42 {
		t.Fatalf("twice(21) = %s", res.Rows[0][0])
	}
}

// TestUserFunctionOverIndexedColumn: a registered function that reads
// one indexed column runs once per key of the index instead of once per
// row — which relies on its being deterministic — and returns the rows a
// scan returns, NULLs and updated rows included.
func TestUserFunctionOverIndexedColumn(t *testing.T) {
	db := NewDB()
	db.RegisterFunc("twice", func(args []Value) (Value, error) {
		return types.NewInt(args[0].Int() * 2), nil
	})
	s := db.NewSession()
	for _, table := range []string{"plain", "keyed"} {
		mustExec(t, s, "CREATE TABLE "+table+" (id INTEGER PRIMARY KEY, v INTEGER)")
		for id := 1; id <= 40; id++ {
			v := types.NewInt(int64(id % 5))
			if id%7 == 0 {
				v = types.Null
			}
			mustExec(t, s, "INSERT INTO "+table+" VALUES (?, ?)", types.NewInt(int64(id)), v)
		}
		mustExec(t, s, "UPDATE "+table+" SET v = 9 WHERE id IN (3, 8)")
	}
	mustExec(t, s, "CREATE INDEX keyed_v ON keyed (v)")
	for _, where := range []string{"twice(v) > 4", "twice(v) = 0", "twice(v) IN (2, 18) AND id > 2"} {
		want := rowsToStrings(mustExec(t, s, "SELECT * FROM plain WHERE "+where))
		if got := rowsToStrings(mustExec(t, s, "SELECT * FROM keyed WHERE "+where)); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s: indexed %v, scanned %v", where, got, want)
		}
	}
	// twice(v) = 0 holds for NULL, which no key set admits; the others
	// read the index.
	for where, want := range map[string]string{
		"twice(v) > 4":                   "INDEX keyed_v ON keyed (v): 3 key(s) where (twice(v) > 4)",
		"twice(v) = 0":                   "SCAN keyed (40 rows)",
		"twice(v) IN (2, 18) AND id > 2": "INDEX keyed_v ON keyed (v): 2 key(s) where (twice(v) IN (2, 18))\n  FILTER (id > 2)",
	} {
		if got := rowsToStrings(mustExec(t, s, "EXPLAIN SELECT * FROM keyed WHERE "+where)); !strings.Contains(strings.Join(got, "\n"), want) {
			t.Errorf("EXPLAIN %s: %v, want %q", where, got, want)
		}
	}
}

func TestLeftJoinWithResidualCondition(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE a (id INTEGER)")
	mustExec(t, s, "CREATE TABLE b (aid INTEGER, flag INTEGER)")
	mustExec(t, s, "INSERT INTO a VALUES (1), (2)")
	mustExec(t, s, "INSERT INTO b VALUES (1, 0), (2, 1)")
	// Row 1 joins but fails the residual flag condition -> NULL-padded.
	res := mustExec(t, s, "SELECT a.id, b.flag FROM a LEFT JOIN b ON a.id = b.aid AND b.flag = 1 ORDER BY 1")
	got := rowsToStrings(res)
	if len(got) != 2 || got[0] != "1|NULL" || got[1] != "2|1" {
		t.Fatalf("left join residual = %v", got)
	}
}

func TestSelfJoinWithAliases(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (a INTEGER)")
	mustExec(t, s, "INSERT INTO t VALUES (1), (2), (3)")
	res := mustExec(t, s, "SELECT COUNT(*) FROM t AS x JOIN t AS y ON x.a = y.a")
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("self join count = %s", res.Rows[0][0])
	}
}

// TestIntegersBeyondFloatPrecision: 2^53 and 2^53+1 are one float64 but
// two integers, and every path that compares or hashes integers keeps
// them apart — a scan, a hashed IN list or subquery, DISTINCT, GROUP BY,
// an index lookup, a hash join, an index join and a unique index. The
// float 2^53 equals only the first, through an index as in a scan.
func TestIntegersBeyondFloatPrecision(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE a (x INTEGER)")
	mustExec(t, s, "CREATE TABLE b (x INTEGER)")
	mustExec(t, s, "CREATE INDEX b_x ON b (x)")
	for _, table := range []string{"a", "b"} {
		mustExec(t, s, "INSERT INTO "+table+" VALUES (9007199254740992), (9007199254740993), (9007199254740993)")
	}
	for stmt, want := range map[string]string{
		"SELECT COUNT(*) FROM a WHERE x = 9007199254740993":                                     "2",
		"SELECT x FROM a WHERE x < 9007199254740993":                                            "9007199254740992",
		"SELECT COUNT(*) FROM a WHERE x IN (9007199254740993, 1, 2, 3, 4, 5, 6, 7, 8)":          "2",
		"SELECT COUNT(*) FROM a WHERE x IN (SELECT x FROM a AS s WHERE s.x < 9007199254740993)": "1",
		"SELECT DISTINCT x FROM a ORDER BY x":                                                   "9007199254740992;9007199254740993",
		"SELECT x, COUNT(*) FROM a GROUP BY x ORDER BY x":                                       "9007199254740992,1;9007199254740993,2",
		"SELECT COUNT(*) FROM b WHERE x = 9007199254740992":                                     "1",
		"SELECT COUNT(*) FROM b WHERE x = 9007199254740993":                                     "2",
		"SELECT COUNT(*) FROM a WHERE x = 9007199254740992.0":                                   "1",
		"SELECT COUNT(*) FROM b WHERE x = 9007199254740992.0":                                   "1",
		"SELECT COUNT(*) FROM a WHERE x <= 9007199254740992.0":                                  "1",
		"SELECT COUNT(*) FROM a JOIN a AS y ON a.x = y.x":                                       "5",
		"SELECT COUNT(*) FROM a JOIN b ON a.x = b.x":                                            "5",
	} {
		var rows []string
		for _, r := range mustExec(t, s, stmt).Rows {
			var cells []string
			for _, v := range r {
				cells = append(cells, v.String())
			}
			rows = append(rows, strings.Join(cells, ","))
		}
		if got := strings.Join(rows, ";"); got != want {
			t.Errorf("%s = %s, want %s", stmt, got, want)
		}
	}
	for stmt, want := range map[string]string{
		"SELECT COUNT(*) FROM a WHERE x IN (9007199254740993, 1, 2, 3, 4, 5, 6, 7, 8)": "SCAN a (3 rows), x among 9 key(s)",
		"SELECT COUNT(*) FROM b WHERE x = 9007199254740993":                            "INDEX b_x ON b (x): 1 key(s)",
		"SELECT COUNT(*) FROM a JOIN a AS y ON a.x = y.x":                              "INNER HASH JOIN",
		"SELECT COUNT(*) FROM a JOIN b ON a.x = b.x":                                   "INNER INDEX JOIN b USING b_x",
	} {
		if plan := planOf(t, s, stmt); !strings.Contains(plan, want) {
			t.Errorf("%s: plan lacks %q:\n%s", stmt, want, plan)
		}
	}
	mustExec(t, s, "CREATE TABLE p (id INTEGER PRIMARY KEY)")
	mustExec(t, s, "INSERT INTO p VALUES (9007199254740992)")
	mustExec(t, s, "INSERT INTO p VALUES (9007199254740993)")
	if _, err := s.Exec("INSERT INTO p VALUES (9007199254740993)"); err == nil {
		t.Error("a second 2^53+1 must violate the primary key")
	}
}

// TestNegativeZeroIsZero: -0.0 equals 0.0, so every path that hashes a
// float keys them alike — DISTINCT and GROUP BY keep one row, an index
// lookup of 0.0 finds the -0.0 row as a scan does, and a hash join and
// an index join match the two. A conjunct that tells them apart reads
// no key set built from the shared key, so it finds what a scan finds.
func TestNegativeZeroIsZero(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE a (x FLOAT)")
	mustExec(t, s, "CREATE TABLE b (id INTEGER PRIMARY KEY, x FLOAT)") // its writes advance the epoch
	mustExec(t, s, "CREATE INDEX b_x ON b (x)")
	negZero := types.NewFloat(math.Copysign(0, -1))
	mustExec(t, s, "INSERT INTO a VALUES (0.0), (?)", negZero)
	mustExec(t, s, "INSERT INTO b VALUES (1, ?), (2, 1.5), (3, 1.5), (4, 2.5), (5, 2.5)", negZero)
	for stmt, want := range map[string]string{
		"SELECT COUNT(*) FROM a WHERE x = 0.0":                "2",
		"SELECT COUNT(DISTINCT x) FROM a":                     "1",
		"SELECT DISTINCT x FROM a":                            "0",
		"SELECT COUNT(*) FROM a GROUP BY x":                   "2",
		"SELECT COUNT(*) FROM b WHERE x = 0.0":                "1",
		"SELECT COUNT(*) FROM b WHERE x = 0":                  "1",
		"SELECT COUNT(*) FROM a JOIN a AS y ON a.x = y.x":     "4",
		"SELECT COUNT(*) FROM a JOIN b ON a.x = b.x":          "2",
		"SELECT COUNT(*) FROM a WHERE CAST(x AS TEXT) = '-0'": "1",
		"SELECT COUNT(*) FROM b WHERE CAST(x AS TEXT) = '-0'": "1",
		"SELECT COUNT(*) FROM b WHERE CAST(x AS TEXT) = '0'":  "0",
		"SELECT COUNT(*) FROM b WHERE x + 1 = 1":              "1",
	} {
		var rows []string
		for _, r := range mustExec(t, s, stmt).Rows {
			rows = append(rows, r[0].String())
		}
		if got := strings.Join(rows, ";"); got != want {
			t.Errorf("%s = %s, want %s", stmt, got, want)
		}
	}
	for stmt, want := range map[string]string{
		"SELECT COUNT(*) FROM b WHERE x = 0.0":                "INDEX b_x ON b (x): 1 key(s)",
		"SELECT COUNT(*) FROM a JOIN a AS y ON a.x = y.x":     "INNER HASH JOIN",
		"SELECT COUNT(*) FROM a JOIN b ON a.x = b.x":          "INNER INDEX JOIN b USING b_x",
		"SELECT COUNT(*) FROM b WHERE CAST(x AS TEXT) = '-0'": "SCAN b (5 rows)",
		"SELECT COUNT(*) FROM b WHERE x + 1 = 1":              "INDEX b_x ON b (x): 1 key(s) where",
	} {
		if plan := planOf(t, s, stmt); !strings.Contains(plan, want) {
			t.Errorf("%s: plan lacks %q:\n%s", stmt, want, plan)
		}
	}
}

// TestNaNIsOneKey: every NaN equals every NaN, whatever its payload, so
// every path that hashes a float keys them alike — DISTINCT and GROUP BY
// keep one NaN, an index lookup of a third NaN finds both NaN rows as a
// scan does, and a hash join, an index join and an IN set match them. A
// FLOAT that is an integer is that INTEGER: a UNION of the two keeps one 3.
func TestNaNIsOneKey(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE a (x FLOAT)")
	mustExec(t, s, "CREATE TABLE b (id INTEGER PRIMARY KEY, x FLOAT)")
	mustExec(t, s, "CREATE INDEX b_x ON b (x)")
	mustExec(t, s, "CREATE TABLE c (i INTEGER)")
	nan1 := types.NewFloat(math.NaN())
	nan2 := types.NewFloat(math.Float64frombits(0xfff8000000000001))
	probe := types.NewFloat(math.Float64frombits(0x7ff8000000000002))
	negZero := types.NewFloat(math.Copysign(0, -1))
	mustExec(t, s, "INSERT INTO a VALUES (?), (?), (3.0), (?)", nan1, nan2, negZero)
	mustExec(t, s, "INSERT INTO b VALUES (1, ?), (2, ?), (3, 3.0), (4, ?)", nan1, nan2, negZero)
	mustExec(t, s, "INSERT INTO c VALUES (3)")
	for _, c := range []struct {
		stmt   string
		params []Value
		want   string
	}{
		{"SELECT COUNT(DISTINCT x) FROM a", nil, "3"},
		{"SELECT COUNT(DISTINCT x) FROM b", nil, "3"},
		{"SELECT DISTINCT x FROM a ORDER BY x", nil, "NaN;-0;3"},
		{"SELECT x, COUNT(*) FROM a GROUP BY x ORDER BY 1", nil, "NaN,2;-0,1;3,1"},
		{"SELECT x, COUNT(*) FROM b GROUP BY x ORDER BY 1", nil, "NaN,2;-0,1;3,1"},
		{"SELECT COUNT(*) FROM a WHERE x = ?", []Value{probe}, "2"},
		{"SELECT COUNT(*) FROM b WHERE x = ?", []Value{probe}, "2"},
		{"SELECT COUNT(*) FROM a JOIN a AS y ON a.x = y.x", nil, "6"},
		{"SELECT COUNT(*) FROM a JOIN b ON a.x = b.x", nil, "6"},
		{"SELECT COUNT(*) FROM a WHERE x IN (SELECT x FROM b)", nil, "4"},
		{"SELECT COUNT(*) FROM b WHERE x IN (SELECT x FROM a)", nil, "4"},
		{"SELECT COUNT(*) FROM c JOIN b ON c.i = b.x", nil, "1"},
		{"SELECT COUNT(*) FROM c JOIN a ON c.i = a.x", nil, "1"},
		{"SELECT i FROM c UNION SELECT x FROM a WHERE x > 0", nil, "3"},
		{"SELECT i FROM c UNION SELECT x FROM b WHERE x > 0", nil, "3"},
		{"SELECT COUNT(*) FROM (SELECT i FROM c UNION SELECT x FROM a) AS d", nil, "3"},
	} {
		var rows []string
		for _, r := range mustExec(t, s, c.stmt, c.params...).Rows {
			var cells []string
			for _, v := range r {
				cells = append(cells, v.String())
			}
			rows = append(rows, strings.Join(cells, ","))
		}
		if got := strings.Join(rows, ";"); got != c.want {
			t.Errorf("%s = %s, want %s", c.stmt, got, c.want)
		}
	}
	for _, c := range []struct {
		stmt   string
		params []Value
		want   string
	}{
		{"SELECT COUNT(*) FROM b WHERE x = ?", []Value{probe}, "INDEX b_x ON b (x): 1 key(s)"},
		{"SELECT COUNT(*) FROM a JOIN a AS y ON a.x = y.x", nil, "INNER HASH JOIN"},
		{"SELECT COUNT(*) FROM a JOIN b ON a.x = b.x", nil, "INNER INDEX JOIN b USING b_x"},
		{"SELECT COUNT(*) FROM b WHERE x IN (SELECT x FROM a)", nil, "INDEX b_x ON b (x): keys from"},
		{"SELECT COUNT(*) FROM c JOIN b ON c.i = b.x", nil, "INNER INDEX JOIN b USING b_x"},
	} {
		if plan := planOf(t, s, c.stmt, c.params...); !strings.Contains(plan, c.want) {
			t.Errorf("%s: plan lacks %q:\n%s", c.stmt, c.want, plan)
		}
	}
}
