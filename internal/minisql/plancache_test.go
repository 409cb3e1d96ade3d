package minisql

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/parser"
	"pdmtune/internal/minisql/types"
)

func planTestDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	s := db.NewSession()
	if _, err := s.ExecScript(`
		CREATE TABLE obj (id INTEGER PRIMARY KEY, typ TEXT, state TEXT);
		INSERT INTO obj VALUES (1, 'assy', 'released');
		INSERT INTO obj VALUES (2, 'part', 'working');
		INSERT INTO obj VALUES (3, 'part', 'released');
	`); err != nil {
		t.Fatal(err)
	}
	s.TakeContention() // setup parses are not the test's concern
	return db
}

// TestPlanCacheHitDoesNoParserWork asserts — via the hit/miss counters,
// which Parse bumps strictly around its parser.Parse call — that the
// second execution of a statement is answered from the cache: one miss
// on first sight, pure hits afterwards, identical results both times.
func TestPlanCacheHitDoesNoParserWork(t *testing.T) {
	db := planTestDB(t)
	s := db.NewSession()
	const q = "SELECT id, typ FROM obj WHERE state = 'released' ORDER BY id"

	first, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.TakeContention(); st.PlanMisses != 1 || st.PlanHits != 0 {
		t.Fatalf("cold exec: hits=%d misses=%d, want 0/1", st.PlanHits, st.PlanMisses)
	}

	for i := 0; i < 5; i++ {
		again, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Rows, first.Rows) || !reflect.DeepEqual(again.Cols, first.Cols) {
			t.Fatalf("cached execution diverged: %+v vs %+v", again, first)
		}
	}
	if st := s.TakeContention(); st.PlanHits != 5 || st.PlanMisses != 0 {
		t.Fatalf("warm execs: hits=%d misses=%d, want 5/0", st.PlanHits, st.PlanMisses)
	}

	// The cache is DB-wide: a different session hits immediately.
	other := db.NewSession()
	if _, err := other.Query(q); err != nil {
		t.Fatal(err)
	}
	if st := other.TakeContention(); st.PlanHits != 1 || st.PlanMisses != 0 {
		t.Fatalf("cross-session exec: hits=%d misses=%d, want 1/0", st.PlanHits, st.PlanMisses)
	}
}

// TestPlanCacheSurvivesDDL checks that DDL leaves cached statements in
// place and that they follow the new catalog: a cached SELECT * is a hit
// after its table is dropped and re-created with other columns, and
// returns them; a cached EXPLAIN of a join shows the index join once the
// index exists, still as a hit. DDL itself is never cached.
func TestPlanCacheSurvivesDDL(t *testing.T) {
	db := planTestDB(t)
	s := db.NewSession()
	query := func(sql string) *Result {
		t.Helper()
		res, err := s.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	ddl := func(sql string) {
		t.Helper()
		pinned := db.plans.pinned()
		if _, err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if st := s.TakeContention(); st.PlanHits != 0 {
			t.Fatalf("%s: plan hits=%d, want 0 (DDL is never cached)", sql, st.PlanHits)
		}
		if n := db.plans.pinned(); n != pinned {
			t.Fatalf("%s: cache pins %d bytes, want %d (DDL neither cached nor flushing)", sql, n, pinned)
		}
	}
	hit := func(what string) {
		t.Helper()
		if st := s.TakeContention(); st.PlanHits != 1 || st.PlanMisses != 0 {
			t.Fatalf("%s: hits=%d misses=%d, want 1/0", what, st.PlanHits, st.PlanMisses)
		}
	}

	ddl("CREATE TABLE aux (id INTEGER PRIMARY KEY, name TEXT)")
	mustExec(t, s, "INSERT INTO aux VALUES (1, 'a')")
	const star = "SELECT * FROM aux"
	query(star)
	s.TakeContention()
	ddl("DROP TABLE aux")
	ddl("CREATE TABLE aux (id INTEGER PRIMARY KEY, w FLOAT, label TEXT)")
	mustExec(t, s, "INSERT INTO aux VALUES (1, 2.5, 'x')")
	s.TakeContention()
	res := query(star)
	hit("SELECT * after DROP and CREATE")
	if got := strings.Join(res.Cols, ","); got != "id,w,label" {
		t.Errorf("columns after re-create: %s, want id,w,label", got)
	}
	if got := strings.Join(rowsToStrings(res), ";"); got != "1|2.5|x" {
		t.Errorf("rows after re-create: %s, want 1|2.5|x", got)
	}

	ddl("CREATE TABLE lnk (id INTEGER PRIMARY KEY, obj_id INTEGER)")
	mustExec(t, s, "INSERT INTO lnk VALUES (10, 1), (11, 2)")
	const explain = "EXPLAIN SELECT lnk.id, obj.typ FROM obj JOIN lnk ON lnk.obj_id = obj.id"
	plan := func() string { return strings.Join(rowsToStrings(query(explain)), "\n") }
	if p := plan(); !strings.Contains(p, "HASH JOIN") {
		t.Fatalf("before the index the join hashes; plan:\n%s", p)
	}
	s.TakeContention()
	ddl("CREATE INDEX lnk_obj ON lnk (obj_id)")
	if p := plan(); !strings.Contains(p, "INDEX JOIN lnk USING lnk_obj") {
		t.Errorf("after CREATE INDEX the cached join must use it; plan:\n%s", p)
	}
	hit("EXPLAIN after CREATE INDEX")
	// The same DDL text run twice is no hit the second time.
	ddl("CREATE INDEX IF NOT EXISTS lnk_obj ON lnk (obj_id)")
	ddl("CREATE INDEX IF NOT EXISTS lnk_obj ON lnk (obj_id)")
}

// bulkInsert renders a one-shot multi-row INSERT of about 40 KB — the
// shape of a bulk loader's flush — with ids starting at base.
func bulkInsert(base, rows int) string {
	var b strings.Builder
	b.WriteString("INSERT INTO obj VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, 'part', '%s')", base+i, strings.Repeat("x", 380))
	}
	return b.String()
}

// TestPlanCacheBoundedByBytes churns a hundred distinct one-shot 40 KB
// statements through the cache: it pins no more than its byte budget,
// a statement larger than the whole budget executes uncached without
// evicting anything, and the hot parameterized statement stays a hit.
func TestPlanCacheBoundedByBytes(t *testing.T) {
	db := planTestDB(t)
	s := db.NewSession()
	const hot = "SELECT typ FROM obj WHERE id = ?"
	if _, err := s.Query(hot, types.NewInt(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		sql := bulkInsert(1000+100*i, 100)
		if len(sql) < 40_000 {
			t.Fatalf("bulk statement is only %d bytes", len(sql))
		}
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
		// The hot statement runs beside the load, so the LRU keeps it young.
		if _, err := s.Query(hot, types.NewInt(1)); err != nil {
			t.Fatal(err)
		}
		if n := db.plans.pinned(); n > planCacheBytes {
			t.Fatalf("cache pins %d bytes of SQL text, budget is %d", n, planCacheBytes)
		}
	}

	before := db.plans.pinned()
	huge := bulkInsert(100_000, 700)
	if len(huge) <= planCacheBytes {
		t.Fatalf("over-budget statement is only %d bytes", len(huge))
	}
	res, err := s.Exec(huge)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 700 {
		t.Fatalf("over-budget INSERT affected %d rows, want 700", res.RowsAffected)
	}
	if _, ok := db.plans.get(huge); ok || db.plans.pinned() != before {
		t.Fatalf("over-budget statement was admitted (pinned %d -> %d)", before, db.plans.pinned())
	}

	s.TakeContention()
	got, err := s.Query(hot, types.NewInt(100_699))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 1 {
		t.Fatalf("row of the over-budget INSERT not found: %v", got.Rows)
	}
	if st := s.TakeContention(); st.PlanHits != 1 || st.PlanMisses != 0 {
		t.Fatalf("hot statement after the churn: hits=%d misses=%d, want 1/0", st.PlanHits, st.PlanMisses)
	}
}

// TestPlanCacheConcurrentExec runs the same statements on many sessions
// at once (run under -race): all sessions share the cached ASTs, so any
// execution-time mutation of a shared node is a data race this test
// makes visible.
func TestPlanCacheConcurrentExec(t *testing.T) {
	db := planTestDB(t)
	queries := []string{
		"SELECT id, typ FROM obj WHERE state = 'released' ORDER BY id",
		"SELECT typ, COUNT(*) FROM obj GROUP BY typ ORDER BY typ",
		"SELECT COUNT(*) FROM obj WHERE id IN (1, 2, 3) AND state LIKE 're%'",
	}
	// Warm the cache so every worker runs on shared ASTs.
	warm := db.NewSession()
	want := make([]*Result, len(queries))
	for i, q := range queries {
		res, err := warm.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < 200; i++ {
				q := i % len(queries)
				res, err := s.Query(queries[q])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res.Rows, want[q].Rows) {
					t.Errorf("concurrent cached exec of %q diverged", queries[q])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPlanCacheParameterizedReuse checks that one cached AST serves
// different parameter bindings — parameters bind at execution, not in
// the plan.
func TestPlanCacheParameterizedReuse(t *testing.T) {
	db := planTestDB(t)
	s := db.NewSession()
	const q = "SELECT typ FROM obj WHERE id = ?"
	for id := int64(1); id <= 3; id++ {
		res, err := s.Query(q, types.NewInt(id))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("id %d: got %d rows, want 1", id, len(res.Rows))
		}
	}
	if st := s.TakeContention(); st.PlanMisses != 1 || st.PlanHits != 2 {
		t.Fatalf("parameterized reuse: hits=%d misses=%d, want 2/1", st.PlanHits, st.PlanMisses)
	}
}

// TestHeldCorrelatedSubqueryChecksOuterColumns: a held statement whose
// subquery reads a column of the enclosing query's table runs, then the
// table is dropped and re-created without that column. The subquery
// reads no row (its own table is empty), yet its next run must fail
// with the unknown column, as a fresh parse of the same text does: what
// the subquery's references resolved to depends on the enclosing
// scopes as much as on its own tables.
func TestHeldCorrelatedSubqueryChecksOuterColumns(t *testing.T) {
	for _, ref := range []string{"t.ref", "ref"} {
		s := newTestSession(t)
		mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, ref INTEGER)")
		mustExec(t, s, "CREATE TABLE u (id INTEGER PRIMARY KEY, t_id INTEGER)")
		mustExec(t, s, "INSERT INTO t VALUES (1, 10), (2, 20)")
		sql := "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.t_id = " + ref + ") ORDER BY id"
		held, err := parser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if res, err := s.ExecStmt(held); err != nil || len(res.Rows) != 0 {
				t.Fatalf("%s: %v, %v; want no rows", sql, res, err)
			}
		}
		mustExec(t, s, "DROP TABLE t")
		mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, other INTEGER)")
		mustExec(t, s, "INSERT INTO t VALUES (1, 10)")
		want := "sql: no such column " + ref
		if _, err := s.Exec(sql + " "); err == nil || err.Error() != want {
			t.Fatalf("%s, parsed afresh: %v, want %q", sql, err, want)
		}
		for range 2 {
			if _, err := s.ExecStmt(held); err == nil || err.Error() != want {
				t.Errorf("%s, held: %v, want %q", sql, err, want)
			}
		}
	}
}

// TestHeldJoinReplansOneLevel: a held EXPLAIN of a join keeps its join
// method run after run when only the joined table is dropped and created
// again. The first level still has the schema planned and the second has
// not, so each later run goes through a plan published by an execution
// that took half its levels from the plan before.
func TestHeldJoinReplansOneLevel(t *testing.T) {
	s := newTestSession(t)
	mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 'a'), (2, 'b')")
	create := func() {
		mustExec(t, s, "CREATE TABLE u (id INTEGER PRIMARY KEY, t_id INTEGER)")
		mustExec(t, s, "INSERT INTO u VALUES (10, 1), (11, 2), (12, 1)")
	}
	create()
	held, err := parser.Parse("EXPLAIN SELECT u.id, t2.name FROM t JOIN t AS t2 ON t2.name = t.name JOIN u ON u.t_id = t.id")
	if err != nil {
		t.Fatal(err)
	}
	plan := func() string {
		t.Helper()
		res, err := s.ExecStmt(held)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(rowsToStrings(res), "\n")
	}
	want := plan()
	if strings.Count(want, "INNER HASH JOIN") != 2 {
		t.Fatalf("want two hash joins; plan:\n%s", want)
	}
	for i := range 3 {
		mustExec(t, s, "DROP TABLE u")
		create()
		for j := range 2 {
			if got := plan(); got != want {
				t.Fatalf("re-create %d, run %d: plan\n%s\nwant\n%s", i, j, got, want)
			}
		}
	}
}

// TestHeldSelectFollowsCatalog: a statement held as an AST — a prepared
// handle, a stored procedure's query — is executed again after DDL
// without a parse, and must answer for the catalog of the moment it
// runs. A table dropped and re-created with other columns gives the
// held SELECT the new columns, and an index created between two runs of
// a held join is used by the next one (EXPLAIN of the same held text
// shows the index join).
func TestHeldSelectFollowsCatalog(t *testing.T) {
	s := newTestSession(t)
	hold := func(sql string) ast.Statement {
		t.Helper()
		stmt, err := parser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return stmt
	}
	run := func(stmt ast.Statement, params ...Value) *Result {
		t.Helper()
		res, err := s.ExecStmt(stmt, params...)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		return res
	}
	check := func(res *Result, cols, rows string) {
		t.Helper()
		if got := strings.Join(res.Cols, ","); got != cols {
			t.Errorf("columns %s, want %s", got, cols)
		}
		if got := strings.Join(rowsToStrings(res), ";"); got != rows {
			t.Errorf("rows %s, want %s", got, rows)
		}
	}

	mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 'a'), (2, 'b')")
	star := hold("SELECT * FROM t WHERE id = ?")
	one := types.NewInt(1)
	check(run(star, one), "id,name", "1|a")
	check(run(star, one), "id,name", "1|a")

	mustExec(t, s, "DROP TABLE t")
	mustExec(t, s, "CREATE TABLE t (id INTEGER PRIMARY KEY, w FLOAT, label TEXT)")
	mustExec(t, s, "INSERT INTO t VALUES (1, 2.5, 'x'), (2, 0.5, 'y')")
	check(run(star, one), "id,w,label", "1|2.5|x")

	mustExec(t, s, "CREATE TABLE u (id INTEGER PRIMARY KEY, t_id INTEGER)")
	mustExec(t, s, "INSERT INTO u VALUES (10, 1), (11, 2), (12, 1)")
	const join = "SELECT u.id, t.label FROM t JOIN u ON u.t_id = t.id ORDER BY 1"
	held, explain := hold(join), hold("EXPLAIN "+join)
	plan := func() string {
		t.Helper()
		return strings.Join(rowsToStrings(run(explain)), "\n")
	}
	check(run(held), "id,label", "10|x;11|y;12|x")
	if p := plan(); !strings.Contains(p, "HASH JOIN") {
		t.Errorf("before the index the join hashes; plan:\n%s", p)
	}
	mustExec(t, s, "CREATE INDEX u_t ON u (t_id)")
	check(run(held), "id,label", "10|x;11|y;12|x")
	if p := plan(); !strings.Contains(p, "INDEX JOIN u USING u_t") {
		t.Errorf("after CREATE INDEX the held join must use it; plan:\n%s", p)
	}
}
