package storage

import (
	"testing"

	"pdmtune/internal/minisql/types"
)

func versionedDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	err := db.CreateTable(&Schema{Name: "assy", Cols: []Column{
		{Name: "obid", Type: types.ColumnType{Kind: types.KindInt}, PrimaryKey: true},
		{Name: "name", Type: types.ColumnType{Kind: types.KindText}},
	}}, false)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestVersionBumpsOnMutations(t *testing.T) {
	db := versionedDB(t)
	tab, _ := db.Table("assy")
	if got := db.Versions().Epoch(); got != 0 {
		t.Fatalf("fresh epoch = %d, want 0", got)
	}

	id, err := tab.Insert(Row{types.NewInt(7), types.NewText("a")})
	if err != nil {
		t.Fatal(err)
	}
	afterInsert := db.Versions().LastModified(7)
	if afterInsert == 0 {
		t.Fatal("insert did not bump the object version")
	}
	if db.Versions().Epoch() != afterInsert {
		t.Fatalf("epoch %d != last bump %d", db.Versions().Epoch(), afterInsert)
	}

	if err := tab.Update(id, Row{types.NewInt(7), types.NewText("b")}); err != nil {
		t.Fatal(err)
	}
	afterUpdate := db.Versions().LastModified(7)
	if afterUpdate <= afterInsert {
		t.Fatalf("update stamp %d not beyond insert stamp %d", afterUpdate, afterInsert)
	}

	if err := tab.Delete(id); err != nil {
		t.Fatal(err)
	}
	afterDelete := db.Versions().LastModified(7)
	if afterDelete <= afterUpdate {
		t.Fatalf("delete stamp %d not beyond update stamp %d", afterDelete, afterUpdate)
	}

	if db.Versions().LastModified(999) != 0 {
		t.Error("untouched object has a version stamp")
	}
}

func TestVersionKeyOverride(t *testing.T) {
	db := versionedDB(t)
	// Registered before creation: remembered and applied at CREATE.
	if err := db.SetVersionKey("link", "left"); err != nil {
		t.Fatal(err)
	}
	err := db.CreateTable(&Schema{Name: "link", Cols: []Column{
		{Name: "obid", Type: types.ColumnType{Kind: types.KindInt}, PrimaryKey: true},
		{Name: "left", Type: types.ColumnType{Kind: types.KindInt}},
		{Name: "right", Type: types.ColumnType{Kind: types.KindInt}},
	}}, false)
	if err != nil {
		t.Fatal(err)
	}
	link, _ := db.Table("link")
	if _, err := link.Insert(Row{types.NewInt(1000), types.NewInt(5), types.NewInt(6)}); err != nil {
		t.Fatal(err)
	}
	if db.Versions().LastModified(5) == 0 {
		t.Error("link insert did not bump the parent (left) version")
	}
	if db.Versions().LastModified(1000) != 0 {
		t.Error("link insert bumped its own pk despite the override")
	}

	// Registered after creation: applied retroactively.
	if err := db.SetVersionKey("assy", "name"); err == nil {
		// name is TEXT — the override is accepted, but non-integer keys
		// are skipped at bump time.
		tab, _ := db.Table("assy")
		before := db.Versions().Epoch()
		if _, err := tab.Insert(Row{types.NewInt(8), types.NewText("x")}); err != nil {
			t.Fatal(err)
		}
		if db.Versions().LastModified(8) != 0 {
			t.Error("override to a text column still bumped the pk")
		}
		_ = before
	}
	if err := db.SetVersionKey("link", "nope"); err == nil {
		t.Error("SetVersionKey accepted a missing column on an existing table")
	}
}
