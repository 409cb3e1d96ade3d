package exec_test

import (
	"strings"
	"testing"

	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/exec"
	"pdmtune/internal/minisql/parser"
	"pdmtune/internal/minisql/storage"
)

// TestMaxRecursionBoundsRecursiveCTE: a UNION ALL recursion that never
// stops growing trips Context.MaxRecursion instead of running away, and
// a recursion that ends below the bound is untouched by it.
func TestMaxRecursionBoundsRecursiveCTE(t *testing.T) {
	eval := func(sql string) (*exec.Relation, error) {
		stmt, err := parser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &exec.Context{DB: storage.NewDB(), MaxRecursion: 50}
		return ctx.EvalSelect(stmt.(*ast.Select), nil)
	}
	_, err := eval(`WITH RECURSIVE n (i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM n) SELECT COUNT(*) FROM n`)
	if err == nil || !strings.Contains(err.Error(), "exceeded 50 iterations") {
		t.Fatalf("runaway recursion: want the guard's error, got %v", err)
	}
	rel, err := eval(`WITH RECURSIVE n (i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM n WHERE i < 40) SELECT COUNT(*) FROM n`)
	if err != nil || rel.Rows[0][0].Int() != 40 {
		t.Fatalf("bounded recursion under the guard: %v, %v", rel, err)
	}
}
