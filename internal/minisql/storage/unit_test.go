package storage

import (
	"context"
	"fmt"
	"testing"

	"pdmtune/internal/minisql/types"
)

// unitOf opens a write unit over one table, wired to the table's own
// version log (nil for a standalone table).
func unitOf(t *Table) *Commit {
	_, _, vlog := t.meta()
	return begin(vlog, []*Table{t})
}

// lookupIDs is LookupAt collected: the ids it visits, in its order.
func lookupIDs(ix *Index, epoch uint64, v types.Value) []int {
	var ids []int
	ix.LookupAt(epoch, v, func(id int, _ Row) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}

// Lookup is lookupIDs in the latest committed state.
func (ix *Index) Lookup(v types.Value) []int { return lookupIDs(ix, Latest, v) }

// Insert, Update and Delete are one-mutation units, the shape most of
// these tests write in.
func (t *Table) Insert(row Row) (int, error) {
	c := unitOf(t)
	id, err := t.InsertC(c, row)
	if err != nil {
		c.Abort()
		return 0, err
	}
	c.Commit()
	return id, nil
}

func (t *Table) Update(id int, row Row) error {
	c := unitOf(t)
	if err := t.UpdateC(c, id, row); err != nil {
		c.Abort()
		return err
	}
	c.Commit()
	return nil
}

func (t *Table) Delete(id int) error {
	c := unitOf(t)
	if err := t.DeleteC(c, id); err != nil {
		c.Abort()
		return err
	}
	c.Commit()
	return nil
}

// TestAbortLeavesNoTrace: a unit that inserts, updates and deletes and
// then aborts leaves the epoch, every stamp, every snapshot and the row
// count as they were — and the unit's own reads at Current saw its
// staged state while it was open.
func TestAbortLeavesNoTrace(t *testing.T) {
	db := versionedDB(t)
	tab, _ := db.Table("assy")
	a, _ := tab.Insert(Row{types.NewInt(1), types.NewText("a")})
	b, _ := tab.Insert(Row{types.NewInt(2), types.NewText("b")})
	epoch, stamp1, stamp2 := db.Versions().Epoch(), db.Versions().LastModified(1), db.Versions().LastModified(2)

	c := db.Begin(tab)
	if err := tab.UpdateC(c, a, Row{types.NewInt(1), types.NewText("a2")}); err != nil {
		t.Fatal(err)
	}
	if err := tab.DeleteC(c, b); err != nil {
		t.Fatal(err)
	}
	n, err := tab.InsertC(c, Row{types.NewInt(3), types.NewText("c")})
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := tab.GetAt(Current, a); !ok || r[1].Text() != "a2" {
		t.Errorf("the unit reads %v at Current, want its staged update", r)
	}
	if _, ok := tab.GetAt(Current, b); ok {
		t.Error("the unit still reads its staged delete at Current")
	}
	if r, ok := tab.Get(a); !ok || r[1].Text() != "a" {
		t.Errorf("Latest reads %v while the unit is open", r)
	}
	if _, ok := tab.Get(n); ok {
		t.Error("Latest reads a staged insert")
	}
	c.Abort()

	if got := db.Versions().Epoch(); got != epoch {
		t.Errorf("abort moved the epoch %d -> %d", epoch, got)
	}
	if db.Versions().LastModified(1) != stamp1 || db.Versions().LastModified(2) != stamp2 || db.Versions().LastModified(3) != 0 {
		t.Error("abort changed a LastModified stamp")
	}
	if got := dump(t, db, "assy"); len(got) != 2 || got[0][1].Text() != "a" || got[1][1].Text() != "b" {
		t.Errorf("after abort: %v", got)
	}
	if tab.NumRows() != 2 {
		t.Errorf("after abort NumRows = %d, want 2", tab.NumRows())
	}
	// The latch is free again and the freed key is reusable.
	if _, err := tab.Insert(Row{types.NewInt(3), types.NewText("c")}); err != nil {
		t.Fatal(err)
	}
	if got := db.Versions().Epoch(); got != epoch+1 {
		t.Errorf("one commit moved the epoch %d -> %d, want +1", epoch, got)
	}
}

// peekCtx runs check every time the apply asks for Err, which it does
// before each table and before the publish.
type peekCtx struct {
	context.Context
	check func()
}

func (p peekCtx) Err() error { p.check(); return nil }

// TestApplyDeltaInvisibleUntilPublish: while a delta apply runs, readers
// of the replica's latest committed state — Table.Get and Index.Lookup,
// not only snapshots — see none of the delta's rows; after the publish
// they see all of them.
func TestApplyDeltaInvisibleUntilPublish(t *testing.T) {
	primary := NewDB()
	d := twoTableDelta(t, primary)
	replica := NewDB()
	seed := replica.ApplyDelta(&Delta{Tables: []TableDelta{
		{Schema: deltaSchema("alpha"), VersionKey: "obid"},
		{Schema: deltaSchema("beta"), VersionKey: "obid"},
	}})
	if seed != nil {
		t.Fatal(seed)
	}
	checks := 0
	ctx := peekCtx{Context: context.Background(), check: func() {
		checks++
		for _, name := range []string{"alpha", "beta"} {
			tab, _ := replica.Table(name)
			for id := 0; id < 8; id++ {
				if r, ok := tab.Get(id); ok {
					t.Errorf("check %d: %s row %d = %v visible at Latest before the publish", checks, name, id, r)
				}
			}
			for k := int64(1); k <= 40; k++ {
				if ids := tab.IndexOn("obid").Lookup(types.NewInt(k)); len(ids) != 0 {
					t.Errorf("check %d: %s key %d found by Lookup before the publish", checks, name, k)
				}
			}
		}
	}}
	if err := replica.ApplyDeltaCtx(ctx, d); err != nil {
		t.Fatal(err)
	}
	if checks < 3 {
		t.Fatalf("Err was called %d times, want one before each table and one before the publish", checks)
	}
	for _, name := range []string{"alpha", "beta"} {
		if got, want := dump(t, replica, name), dump(t, primary, name); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s after publish = %v, want %v", name, got, want)
		}
	}
}
