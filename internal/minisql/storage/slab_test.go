package storage

import (
	"testing"
	"unsafe"

	"pdmtune/internal/minisql/types"
)

// TestWriteUnitReservedInsertAbort: the rows of a reserved bulk insert lie
// in one slab, in row-id order, and the reservation is used up exactly;
// aborting the unit leaves no row, no epoch, no stamp and no index hit,
// and the keys are free again.
func TestWriteUnitReservedInsertAbort(t *testing.T) {
	db := versionedDB(t)
	tab, _ := db.Table("assy")
	if err := tab.CreateIndex("assy_name", "name", false); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(Row{types.NewInt(1), types.NewText("keep")}); err != nil {
		t.Fatal(err)
	}
	epoch := db.Versions().Epoch()
	const n = 200
	c := db.Begin(tab)
	c.ReserveInserts(tab, n)
	ids := make([]int, n)
	row := make(Row, 2) // InsertC copies it
	for i := range ids {
		row[0], row[1] = types.NewInt(int64(100+i)), types.NewText("bulk")
		id, err := tab.InsertC(c, row)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if len(c.slab.vals)+len(c.slab.vers)+len(c.slab.slots) != 0 {
		t.Errorf("reservation left %d values, %d versions, %d slots", len(c.slab.vals), len(c.slab.vers), len(c.slab.slots))
	}
	first, _ := tab.GetAt(Current, ids[0])
	for i, id := range ids {
		r, _ := tab.GetAt(Current, id)
		if gap := uintptr(unsafe.Pointer(&r[0])) - uintptr(unsafe.Pointer(&first[0])); gap != uintptr(i*len(r))*unsafe.Sizeof(r[0]) {
			t.Fatalf("row %d lies %d B past the first, want %d rows' worth", i, gap, i)
		}
	}
	c.Abort()

	if got := db.Versions().Epoch(); got != epoch {
		t.Errorf("abort moved the epoch %d -> %d", epoch, got)
	}
	if got := dump(t, db, "assy"); len(got) != 1 || got[0][1].Text() != "keep" {
		t.Errorf("after abort: %v", got)
	}
	if tab.NumRows() != 1 {
		t.Errorf("after abort NumRows = %d, want 1", tab.NumRows())
	}
	if ids := tab.IndexOn("name").Lookup(types.NewText("bulk")); len(ids) != 0 {
		t.Errorf("name index finds %v after abort", ids)
	}
	for i := 0; i < n; i++ {
		if ids := tab.IndexOn("obid").Lookup(types.NewInt(int64(100 + i))); len(ids) != 0 || db.Versions().LastModified(int64(100+i)) != 0 {
			t.Fatalf("key %d: index finds %v, stamp %d after abort", 100+i, ids, db.Versions().LastModified(int64(100+i)))
		}
	}
	c = db.Begin(tab)
	c.ReserveInserts(tab, 2)
	for _, k := range []int64{100, 101} {
		if _, err := tab.InsertC(c, Row{types.NewInt(k), types.NewText("again")}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Commit(); got != epoch+1 {
		t.Errorf("the next unit committed at %d, want %d", got, epoch+1)
	}
}

// TestWriteUnitReservesOnlyBulk: a reservation of fewer than two rows is
// none — a one-row UPDATE or INSERT allocates per row, as it always did —
// and one of many rows makes its three slabs, which the unit's rows then
// use up.
func TestWriteUnitReservesOnlyBulk(t *testing.T) {
	db := versionedDB(t)
	tab, _ := db.Table("assy")
	id, err := tab.Insert(Row{types.NewInt(1), types.NewText("a")})
	if err != nil {
		t.Fatal(err)
	}
	c := db.Begin(tab)
	defer c.Abort()
	for _, n := range []int{0, 1} {
		if a := testing.AllocsPerRun(10, func() { c.ReserveUpdates(tab, n) }); a != 0 || c.slab.t != nil {
			t.Errorf("ReserveUpdates(%d): %.0f allocations, slab of %v; want none", n, a, c.slab.t)
		}
		if a := testing.AllocsPerRun(10, func() { c.ReserveInserts(tab, n) }); a != 0 || c.slab.t != nil {
			t.Errorf("ReserveInserts(%d): %.0f allocations, slab of %v; want none", n, a, c.slab.t)
		}
	}
	if err := tab.UpdateC(c, id, Row{types.NewInt(1), types.NewText("b")}); err != nil {
		t.Fatal(err)
	}
	c.ReserveUpdates(tab, 2)
	if len(c.slab.vals) != 4 || len(c.slab.vers) != 2 || c.slab.slots != nil {
		t.Errorf("ReserveUpdates(2): %d values, %d versions, %d slots; want 4, 2, none", len(c.slab.vals), len(c.slab.vers), len(c.slab.slots))
	}
	for _, name := range []string{"c", "d"} {
		if err := tab.UpdateC(c, id, Row{types.NewInt(1), types.NewText(name)}); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.slab.vals)+len(c.slab.vers) != 0 {
		t.Errorf("two updates left %d values, %d versions of their reservation", len(c.slab.vals), len(c.slab.vers))
	}
}
