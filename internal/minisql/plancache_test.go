package minisql

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

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

// TestPlanCacheDDLInvalidation checks that every DDL statement empties
// the cache — a cached plan must never survive a schema change — and
// that DDL itself is never cached.
func TestPlanCacheDDLInvalidation(t *testing.T) {
	db := planTestDB(t)
	s := db.NewSession()
	const q = "SELECT COUNT(*) FROM obj"

	ddl := []string{
		"CREATE TABLE aux (id INTEGER)",
		"CREATE INDEX obj_state ON obj (state)",
		"DROP TABLE aux",
	}
	for _, stmt := range ddl {
		if _, err := s.Query(q); err != nil {
			t.Fatal(err)
		}
		if db.plans.pinned() == 0 {
			t.Fatalf("query %q did not populate the cache", q)
		}
		if _, err := s.Exec(stmt); err != nil {
			t.Fatal(err)
		}
		if n := db.plans.pinned(); n != 0 {
			t.Fatalf("%d cached plans survived %q, want 0", n, stmt)
		}
	}

	s.TakeContention()
	if _, err := s.Query(q); err != nil {
		t.Fatal(err)
	}
	if st := s.TakeContention(); st.PlanMisses != 1 {
		t.Fatalf("post-DDL exec misses=%d, want 1 (invalidated entry must re-parse)", st.PlanMisses)
	}
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
