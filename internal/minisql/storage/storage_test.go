package storage

import (
	"fmt"
	"testing"
	"testing/quick"

	"pdmtune/internal/minisql/types"
)

func newTestTable(t *testing.T) *Table {
	t.Helper()
	schema := &Schema{Name: "t", Cols: []Column{
		{Name: "id", Type: types.ColumnType{Kind: types.KindInt}, PrimaryKey: true},
		{Name: "name", Type: types.ColumnType{Kind: types.KindText}},
		{Name: "w", Type: types.ColumnType{Kind: types.KindFloat}},
	}}
	table, err := NewTable(schema)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func row(id int64, name string, w float64) Row {
	return Row{types.NewInt(id), types.NewText(name), types.NewFloat(w)}
}

func TestInsertGetScan(t *testing.T) {
	table := newTestTable(t)
	id1, err := table.Insert(row(1, "a", 0.5))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := table.Insert(row(2, "b", 1.5))
	if err != nil {
		t.Fatal(err)
	}
	if table.NumRows() != 2 {
		t.Fatalf("NumRows = %d", table.NumRows())
	}
	r, ok := table.Get(id1)
	if !ok || r[1].Text() != "a" {
		t.Fatalf("Get(%d) = %v, %v", id1, r, ok)
	}
	seen := 0
	table.Scan(func(id int, r Row) bool {
		seen++
		return true
	})
	if seen != 2 {
		t.Fatalf("scan saw %d rows", seen)
	}
	// Early termination.
	seen = 0
	table.Scan(func(id int, r Row) bool {
		seen++
		return false
	})
	if seen != 1 {
		t.Fatalf("aborted scan saw %d rows", seen)
	}
	_ = id2
}

func TestPrimaryKeyIndexEnforced(t *testing.T) {
	table := newTestTable(t)
	if _, err := table.Insert(row(1, "a", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := table.Insert(row(1, "dup", 0)); err == nil {
		t.Fatal("duplicate PK must fail")
	}
	if table.NumRows() != 1 {
		t.Fatalf("failed insert left %d rows", table.NumRows())
	}
	idx := table.IndexOn("id")
	if idx == nil {
		t.Fatal("PK index missing")
	}
	if got := idx.Lookup(types.NewInt(1)); len(got) != 1 {
		t.Fatalf("index lookup = %v", got)
	}
}

func TestArityAndCoercion(t *testing.T) {
	table := newTestTable(t)
	if _, err := table.Insert(Row{types.NewInt(1)}); err == nil {
		t.Error("short row must fail")
	}
	// Text that parses as a number coerces into the float column.
	id, err := table.Insert(Row{types.NewInt(2), types.NewText("x"), types.NewText("2.5")})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := table.Get(id)
	if r[2].Kind() != types.KindFloat || r[2].Float() != 2.5 {
		t.Errorf("coerced value = %v", r[2])
	}
	// NULL into PK fails.
	if _, err := table.Insert(Row{types.Null, types.NewText("x"), types.Null}); err == nil {
		t.Error("NULL PK must fail")
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	table := newTestTable(t)
	if err := table.CreateIndex("t_name", "name", false); err != nil {
		t.Fatal(err)
	}
	id, _ := table.Insert(row(1, "old", 0))
	if err := table.Update(id, row(1, "new", 0)); err != nil {
		t.Fatal(err)
	}
	if got := table.IndexOn("name").Lookup(types.NewText("old")); len(got) != 0 {
		t.Errorf("stale index entry: %v", got)
	}
	if got := table.IndexOn("name").Lookup(types.NewText("new")); len(got) != 1 {
		t.Errorf("missing index entry: %v", got)
	}
	// Update violating the PK restores the old index entry.
	table.Insert(row(2, "x", 0))
	if err := table.Update(id, row(2, "new", 0)); err == nil {
		t.Fatal("PK-violating update must fail")
	}
	if got := table.IndexOn("id").Lookup(types.NewInt(1)); len(got) != 1 {
		t.Errorf("PK index lost original entry after failed update: %v", got)
	}
}

func TestDeleteAndAbortedDelete(t *testing.T) {
	table := newTestTable(t)
	id, _ := table.Insert(row(1, "a", 0))
	// A delete staged in a unit that aborts leaves the row and its index
	// entry as they were.
	c := unitOf(table)
	if err := table.DeleteC(c, id); err != nil {
		t.Fatal(err)
	}
	c.Abort()
	if _, ok := table.Get(id); !ok {
		t.Error("aborted delete removed the row")
	}
	if got := table.IndexOn("id").Lookup(types.NewInt(1)); len(got) != 1 {
		t.Errorf("aborted delete lost the index entry: %v", got)
	}
	if err := table.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, ok := table.Get(id); ok {
		t.Error("deleted row still visible")
	}
	if table.NumRows() != 0 {
		t.Errorf("NumRows = %d after delete", table.NumRows())
	}
	if err := table.Delete(id); err == nil {
		t.Error("double delete must fail")
	}
}

func TestCreateIndexBackfillsAndValidates(t *testing.T) {
	table := newTestTable(t)
	for i := 0; i < 10; i++ {
		table.Insert(row(int64(i), fmt.Sprintf("n%d", i%3), 0))
	}
	if err := table.CreateIndex("t_name", "name", false); err != nil {
		t.Fatal(err)
	}
	if got := table.IndexOn("name").Lookup(types.NewText("n0")); len(got) != 4 {
		t.Errorf("backfilled lookup = %d entries, want 4", len(got))
	}
	if err := table.CreateIndex("t_name", "name", false); err == nil {
		t.Error("duplicate index name must fail")
	}
	if err := table.CreateIndex("nope", "missing", false); err == nil {
		t.Error("index on missing column must fail")
	}
	if err := table.CreateIndex("uniq_name", "name", true); err == nil {
		t.Error("unique index over duplicate values must fail")
	}
	if !table.HasIndex("t_name") || table.HasIndex("uniq") {
		t.Error("HasIndex wrong")
	}
}

func TestDBCatalog(t *testing.T) {
	db := NewDB()
	schema := &Schema{Name: "T1", Cols: []Column{{Name: "a", Type: types.ColumnType{Kind: types.KindInt}}}}
	if err := db.CreateTable(schema, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Table("t1"); !ok {
		t.Error("lookup should be case-insensitive")
	}
	if err := db.CreateTable(schema, false); err == nil {
		t.Error("duplicate table must fail")
	}
	if err := db.CreateTable(schema, true); err != nil {
		t.Error("IF NOT EXISTS must not fail")
	}
	dup := &Schema{Name: "bad", Cols: []Column{
		{Name: "a", Type: types.ColumnType{Kind: types.KindInt}},
		{Name: "A", Type: types.ColumnType{Kind: types.KindInt}},
	}}
	if err := db.CreateTable(dup, false); err == nil {
		t.Error("duplicate column names must fail")
	}
	if err := db.DropTable("t1", false); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("t1", false); err == nil {
		t.Error("dropping a missing table must fail")
	}
	if err := db.DropTable("t1", true); err != nil {
		t.Error("DROP IF EXISTS must not fail")
	}
}

// Property: after a random sequence of inserts and deletes, the index
// over "id" agrees exactly with a scan.
func TestIndexConsistencyProperty(t *testing.T) {
	f := func(ops []int16) bool {
		schema := &Schema{Name: "p", Cols: []Column{
			{Name: "id", Type: types.ColumnType{Kind: types.KindInt}},
		}}
		table, _ := NewTable(schema)
		_ = table.CreateIndex("p_id", "id", false)
		var live []int
		for _, op := range ops {
			if op >= 0 || len(live) == 0 {
				id, err := table.Insert(Row{types.NewInt(int64(op % 50))})
				if err != nil {
					return false
				}
				live = append(live, id)
			} else {
				victim := live[int(-op)%len(live)]
				live = append(live[:0], removeOne(live, victim)...)
				if err := table.Delete(victim); err != nil {
					return false
				}
			}
		}
		// Index lookups must match a full scan for every key.
		counts := map[int64]int{}
		table.Scan(func(_ int, r Row) bool {
			counts[r[0].Int()]++
			return true
		})
		idx := table.IndexOn("id")
		for k := int64(-50); k <= 50; k++ {
			v := types.NewInt(k)
			if len(idx.Lookup(v)) != counts[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func removeOne(s []int, v int) []int {
	out := s[:0]
	removed := false
	for _, x := range s {
		if x == v && !removed {
			removed = true
			continue
		}
		out = append(out, x)
	}
	return out
}

// BenchmarkIndexLookup: a hit in a non-unique index over 100,000 rows
// (buckets of five, like link.left) into a reused id buffer builds no
// key string and copies no bucket — 0 allocs/op.
func BenchmarkIndexLookup(b *testing.B) {
	table, _ := NewTable(&Schema{Name: "link", Cols: []Column{
		{Name: "obid", Type: types.ColumnType{Kind: types.KindInt}, PrimaryKey: true},
		{Name: "left", Type: types.ColumnType{Kind: types.KindInt}},
	}})
	const rows = 100_000
	for i := 0; i < rows; i++ {
		if _, err := table.Insert(Row{types.NewInt(int64(i)), types.NewInt(int64(100_000 + i/5))}); err != nil {
			b.Fatal(err)
		}
	}
	if err := table.CreateIndex("link_left_idx", "left", false); err != nil {
		b.Fatal(err)
	}
	idx := table.IndexOn("left")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		idx.LookupAt(Latest, types.NewInt(int64(100_000+i%(rows/5))), func(int, Row) bool { n++; return true })
		if n != 5 {
			b.Fatalf("lookup found %d rows, want 5", n)
		}
	}
}
