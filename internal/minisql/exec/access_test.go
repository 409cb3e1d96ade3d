package exec

import (
	"fmt"
	"strings"
	"testing"

	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/parser"
	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
)

// TestLongKeyListIsHashed: a key filter used to compare a row's value
// with every key of its list — 25 million comparisons for 5,000 literals
// on an unindexed column over 5,000 rows. Past a handful of keys the
// filter is a hashed set: one probe per row, no allocation, the same
// rows; a single key stays a comparison, so `col = k` of a kind the
// column cannot be compared with still raises its error.
func TestLongKeyListIsHashed(t *testing.T) {
	const n = 5000
	db := storage.NewDB()
	schema := &storage.Schema{Name: "t", Cols: []storage.Column{
		{Name: "id", Type: types.ColumnType{Kind: types.KindInt}},
		{Name: "v", Type: types.ColumnType{Kind: types.KindInt}},
	}}
	if err := db.CreateTable(schema, false); err != nil {
		t.Fatal(err)
	}
	table, _ := db.Table("t")
	items := make([]string, n)
	load := db.Begin(table)
	for i := 0; i < n; i++ {
		if _, err := table.InsertC(load, storage.Row{types.NewInt(int64(i)), types.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
		items[i] = fmt.Sprint(2 * i) // every other one names a row
	}
	load.Commit()
	where := func(cond string) []conjunct {
		stmt, err := parser.Parse("SELECT * FROM t WHERE " + cond)
		if err != nil {
			t.Fatal(err)
		}
		return splitAnd(stmt.(*ast.Select).Body.(*ast.SelectCore).Where, nil)
	}
	ctx := &Context{DB: db}
	choose := func(conjs []conjunct) (*access, error) {
		acc := &access{table: table}
		return acc, ctx.chooseAccess(acc, "t", true, conjs, nil)
	}

	acc, err := choose(where("v IN (" + strings.Join(items, ", ") + ", 4, NULL)"))
	if err != nil {
		t.Fatal(err)
	}
	if acc.index != nil || len(acc.filters) != 1 || acc.filters[0].set == nil || len(acc.filters[0].set.vals) != n {
		t.Fatalf("want a scan with one hashed filter of %d keys, got %s (%+v)", n, acc, acc.filters)
	}
	visited := 0
	count := func(int, storage.Row) error { visited++; return nil }
	if err := ctx.read(acc, count); err != nil || visited != n/2 {
		t.Fatalf("read: %d rows, error %v; want %d", visited, err, n/2)
	}
	if allocs := testing.AllocsPerRun(5, func() { _ = ctx.read(acc, count) }); allocs > 0 {
		t.Errorf("filtering %d rows against %d keys allocates %v times, want 0", n, n, allocs)
	}

	acc, err = choose(where("v IN (1, 2, 3)"))
	if err != nil || acc.filters[0].set != nil {
		t.Errorf("a handful of keys needs no hash: %s, %v", acc, err)
	}
	acc, err = choose(where("v = 'abc'"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.read(acc, count); err == nil || !strings.Contains(err.Error(), "cannot compare") {
		t.Errorf("v = 'abc' on an integer column: want the comparison's error, got %v", err)
	}
}
