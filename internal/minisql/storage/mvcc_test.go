package storage

import (
	"fmt"
	"sync"
	"testing"

	"pdmtune/internal/minisql/types"
)

// newVersionedTable returns a table wired to a fresh version log, the
// configuration every engine table runs with.
func newVersionedTable(t *testing.T) (*Table, *VersionLog) {
	t.Helper()
	db := NewDB()
	schema := &Schema{Name: "t", Cols: []Column{
		{Name: "id", Type: types.ColumnType{Kind: types.KindInt}, PrimaryKey: true},
		{Name: "name", Type: types.ColumnType{Kind: types.KindText}},
	}}
	if err := db.CreateTable(schema, false); err != nil {
		t.Fatal(err)
	}
	table, _ := db.Table("t")
	return table, db.Versions()
}

func vrow(id int64, name string) Row {
	return Row{types.NewInt(id), types.NewText(name)}
}

// A snapshot opened before a write never sees it; one opened after the
// commit always does.
func TestSnapshotVisibility(t *testing.T) {
	table, vlog := newVersionedTable(t)
	id, err := table.Insert(vrow(1, "a"))
	if err != nil {
		t.Fatal(err)
	}
	before := vlog.Epoch()
	if err := table.Update(id, vrow(1, "b")); err != nil {
		t.Fatal(err)
	}
	after := vlog.Epoch()
	if after == before {
		t.Fatal("update did not advance the epoch")
	}
	if r, ok := table.GetAt(before, id); !ok || r[1].Text() != "a" {
		t.Errorf("snapshot %d sees %v, want the pre-update row", before, r)
	}
	if r, ok := table.GetAt(after, id); !ok || r[1].Text() != "b" {
		t.Errorf("snapshot %d sees %v, want the updated row", after, r)
	}
	if r, ok := table.GetAt(Latest, id); !ok || r[1].Text() != "b" {
		t.Errorf("Latest sees %v", r)
	}
}

// Deletes are tombstones: old snapshots keep the row, new ones lose it;
// inserts are invisible to snapshots opened before them.
func TestSnapshotInsertDelete(t *testing.T) {
	table, vlog := newVersionedTable(t)
	empty := vlog.Epoch()
	id, _ := table.Insert(vrow(1, "a"))
	inserted := vlog.Epoch()
	if err := table.Delete(id); err != nil {
		t.Fatal(err)
	}
	deleted := vlog.Epoch()

	if _, ok := table.GetAt(empty, id); ok {
		t.Error("pre-insert snapshot sees the row")
	}
	if r, ok := table.GetAt(inserted, id); !ok || r[1].Text() != "a" {
		t.Errorf("post-insert snapshot sees %v, %v", r, ok)
	}
	if _, ok := table.GetAt(deleted, id); ok {
		t.Error("post-delete snapshot still sees the row")
	}
	count := func(epoch uint64) int {
		n := 0
		table.ScanAt(epoch, func(int, Row) bool { n++; return true })
		return n
	}
	if count(empty) != 0 || count(inserted) != 1 || count(deleted) != 0 {
		t.Errorf("ScanAt counts = %d/%d/%d, want 0/1/0", count(empty), count(inserted), count(deleted))
	}
}

// A commit batch publishes all its mutations under one epoch: no
// snapshot can observe half the statement. Abort leaves no trace.
func TestCommitBatchAtomicity(t *testing.T) {
	table, vlog := newVersionedTable(t)
	c := unitOf(table)
	if _, err := table.InsertC(c, vrow(1, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := table.InsertC(c, vrow(2, "b")); err != nil {
		t.Fatal(err)
	}
	// Staged but uncommitted: invisible to every snapshot, including
	// Latest (NumRows, a bookkeeping counter, does include pending rows).
	visible := 0
	table.ScanAt(Latest, func(int, Row) bool { visible++; return true })
	if visible != 0 {
		t.Fatalf("pending rows visible to a snapshot: %d", visible)
	}
	pre := vlog.Epoch()
	epoch := c.Commit()
	if epoch <= pre {
		t.Fatalf("commit epoch %d not after %d", epoch, pre)
	}
	if _, ok := table.GetAt(pre, 0); ok {
		t.Error("pre-commit snapshot sees a committed row")
	}
	n := 0
	table.ScanAt(epoch, func(int, Row) bool { n++; return true })
	if n != 2 {
		t.Errorf("commit published %d rows, want 2", n)
	}

	// Abort: staged insert disappears, unique index entry is dead.
	c2 := unitOf(table)
	if _, err := table.InsertC(c2, vrow(3, "c")); err != nil {
		t.Fatal(err)
	}
	c2.Abort()
	if table.NumRows() != 2 {
		t.Errorf("abort left %d rows, want 2", table.NumRows())
	}
	if _, err := table.Insert(vrow(3, "c")); err != nil {
		t.Errorf("insert after abort of same key: %v", err)
	}
}

// LookupAt filters dead index entries: the bucket keeps entries for old
// versions, but only rows visible at the snapshot come back.
func TestLookupAtFiltersStaleEntries(t *testing.T) {
	table, vlog := newVersionedTable(t)
	if err := table.CreateIndex("t_name", "name", false); err != nil {
		t.Fatal(err)
	}
	id, _ := table.Insert(vrow(1, "old"))
	renamed := table.Update(id, vrow(1, "new"))
	if renamed != nil {
		t.Fatal(renamed)
	}
	now := vlog.Epoch()
	idx := table.IndexOn("name")
	if got := lookupIDs(idx, now, types.NewText("old")); len(got) != 0 {
		t.Errorf("stale entry surfaced: %v", got)
	}
	if got := lookupIDs(idx, now, types.NewText("new")); len(got) != 1 {
		t.Errorf("live entry missing: %v", got)
	}
	// An old snapshot still resolves the old value.
	var oldEpoch uint64
	for e := uint64(1); e < now; e++ {
		if r, ok := table.GetAt(e, id); ok && r[1].Text() == "old" {
			oldEpoch = e
		}
	}
	if oldEpoch == 0 {
		t.Fatal("no epoch shows the old value")
	}
	if got := lookupIDs(idx, oldEpoch, types.NewText("old")); len(got) != 1 {
		t.Errorf("old snapshot lookup = %v, want the original row", got)
	}
}

// LookupAt visits rows in ascending id order — scan order — even when an
// update has appended an older row to a bucket, and a snapshot from
// before the update still finds only the rows it saw.
func TestLookupAtAscendingAfterUpdate(t *testing.T) {
	table, vlog := newVersionedTable(t)
	if err := table.CreateIndex("t_name", "name", false); err != nil {
		t.Fatal(err)
	}
	var ids []int
	for i, name := range []string{"a", "b", "b"} {
		id, err := table.Insert(vrow(int64(i+1), name))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	before := vlog.Epoch()
	if err := table.Update(ids[0], vrow(1, "b")); err != nil {
		t.Fatal(err)
	}
	idx := table.IndexOn("name")
	for range 2 { // the first lookup sorts the bucket, the second reads it sorted
		if got := lookupIDs(idx, vlog.Epoch(), types.NewText("b")); fmt.Sprint(got) != fmt.Sprint(ids) {
			t.Errorf("lookup after the update = %v, want %v", got, ids)
		}
	}
	if got := lookupIDs(idx, before, types.NewText("b")); fmt.Sprint(got) != fmt.Sprint(ids[1:]) {
		t.Errorf("lookup at the earlier snapshot = %v, want %v", got, ids[1:])
	}
}

// Unique constraints check current heads, so a value freed by a delete
// or update is immediately reusable while old versions still hold it.
func TestUniqueWithDeadVersions(t *testing.T) {
	table, _ := newVersionedTable(t)
	id, _ := table.Insert(vrow(1, "a"))
	if err := table.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := table.Insert(vrow(1, "again")); err != nil {
		t.Errorf("PK freed by delete not reusable: %v", err)
	}
	if _, err := table.Insert(vrow(1, "dup")); err == nil {
		t.Error("live duplicate PK accepted")
	}
}

// Concurrent snapshot readers over a stream of single-row updates must
// always see one of the committed names, never a torn or pending state.
// Run with -race: readers are lock-free while the writer's unit holds
// the table latch.
func TestConcurrentReadersNeverBlockOrTear(t *testing.T) {
	table, vlog := newVersionedTable(t)
	id, _ := table.Insert(vrow(1, "v0"))
	const writes = 200
	valid := map[string]bool{"v0": true}
	for i := 1; i <= writes; i++ {
		valid[fmt.Sprintf("v%d", i)] = true
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				epoch := vlog.Epoch()
				r1, ok1 := table.GetAt(epoch, id)
				r2, ok2 := table.GetAt(epoch, id)
				if !ok1 || !ok2 {
					errs <- "row vanished from a snapshot"
					return
				}
				if !valid[r1[1].Text()] || r1[1].Text() != r2[1].Text() {
					errs <- fmt.Sprintf("torn read: %q then %q", r1[1].Text(), r2[1].Text())
					return
				}
			}
		}()
	}
	for i := 1; i <= writes; i++ {
		c := unitOf(table)
		if err := table.UpdateC(c, id, vrow(1, fmt.Sprintf("v%d", i))); err != nil {
			c.Abort()
			t.Fatal(err)
		}
		c.Commit()
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// Lookups walk a bucket without copying it while a writer grows that
// very bucket: every lookup at an epoch must return exactly the rows
// committed by then — the bucket's prefix —, race-free.
func TestConcurrentLookupsWhileBucketGrows(t *testing.T) {
	table, vlog := newVersionedTable(t)
	if err := table.CreateIndex("t_name", "name", false); err != nil {
		t.Fatal(err)
	}
	idx := table.IndexOn("name")
	const writes = 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan string, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				epoch := vlog.Epoch()
				ids := lookupIDs(idx, epoch, types.NewText("same"))
				if uint64(len(ids)) != epoch { // one insert per epoch
					errs <- fmt.Sprintf("lookup at epoch %d found %d rows", epoch, len(ids))
					return
				}
			}
		}()
	}
	for i := 1; i <= writes; i++ {
		if _, err := table.Insert(vrow(int64(i), "same")); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}
