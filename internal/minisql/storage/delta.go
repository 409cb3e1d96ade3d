package storage

import (
	"context"
	"fmt"

	"pdmtune/internal/minisql/types"
)

// ---------------------------------------------------------------------------
// Replication deltas
//
// A replica site keeps a full copy of the primary's database and pulls
// it forward by epoch: ExtractDelta collects, for every version key
// modified after the replica's last-seen epoch, the *current* rows
// keyed by it — full rows, not diffs, so applying a delta is a
// delete-then-insert per key and needs no per-row history. Deletions
// fall out naturally: a deleted row's key is in the modified set with
// no surviving rows, so the replica's delete has nothing to re-insert.
//
// The delta also carries each table's schema and indexes, so a fresh
// replica (since == 0) bootstraps its catalog from the first sync, and
// the primary's per-key modification stamps, so the replica's version
// log becomes a mirror of the primary's — which is what keeps the
// client cache's validate exchange working unchanged against a
// replica.
//
// Concurrency: extraction is a lock-free snapshot read — the stamp set
// and target epoch are captured atomically from the version log, then
// rows are read at that snapshot, so concurrent writers on the primary
// cannot tear a delta. Application is one write unit like any other:
// it stages its deletes and inserts as pending versions, invisible to
// every replica reader, and publishes them with Commit.Replicate at the
// primary's epoch — so replica readers switch from the old state to
// the fully applied delta atomically, and a failed apply aborts the
// unit and leaves nothing behind.

// IndexSpec describes one secondary index for delta transfer.
type IndexSpec struct {
	Name   string
	Column string
	Unique bool
}

// TableDelta is the per-table slice of a replication delta.
type TableDelta struct {
	// Schema is the table's full catalog entry (used to create the
	// table on a replica that does not have it yet).
	Schema *Schema
	// VersionKey is the table's version-key column ("" when the table
	// is not version-tracked; such tables are not replicated).
	VersionKey string
	// Indexes are the table's secondary indexes (the primary-key index
	// is implied by the schema).
	Indexes []IndexSpec
	// Rows are the rows, as of the delta's Epoch, whose version key was
	// modified after the delta's Since epoch.
	Rows []Row
}

// Delta is everything a replica needs to advance from epoch Since to
// epoch Epoch.
type Delta struct {
	// Since is the epoch the delta starts above (the replica's
	// last-seen epoch; 0 for a full bootstrap).
	Since uint64
	// Epoch is the primary's epoch at extraction time — the replica's
	// new last-seen epoch after a successful apply.
	Epoch uint64
	// Stamps maps every version key modified after Since to the epoch
	// of its last mutation. Applying a delta deletes all replica rows
	// keyed by these and re-inserts the shipped Rows.
	Stamps map[int64]uint64
	// Tables are the per-table row sets, in catalog order.
	Tables []TableDelta

	// Partial marks a subscription-filtered delta: rows outside the
	// requesting site's subscription were skipped. Stamps are always
	// complete — the replica's version log stays a full mirror even when
	// its row set is not, so cache validation and staleness bounds keep
	// working on a partial replica.
	Partial bool
	// Holds is the closure of version keys the subscription covers, as
	// resolved by the primary at extraction time (nil for full deltas).
	// The replica records it to route out-of-subscription reads.
	Holds []int64
	// Skipped counts the rows the subscription filter dropped.
	Skipped int
}

// RowCount reports the total number of rows the delta ships.
func (d *Delta) RowCount() int {
	n := 0
	for _, td := range d.Tables {
		n += len(td.Rows)
	}
	return n
}

// ModifiedSince returns the keys modified after the given epoch with
// their last-modified stamps, plus the log's current epoch. The pair
// is captured atomically, so every returned stamp is <= the returned
// epoch and a snapshot read at that epoch sees exactly the stamped
// state.
func (v *VersionLog) ModifiedSince(since uint64) (map[int64]uint64, uint64) {
	if v == nil {
		return map[int64]uint64{}, 0
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[int64]uint64)
	for k, e := range v.modified {
		if e > since {
			out[k] = e
		}
	}
	return out, v.epoch
}

// ExtractDelta collects the replication delta above the given epoch:
// every version-tracked table contributes its rows, as visible at the
// capture epoch, whose version key was modified after since. No locks
// are held over the row collection — the snapshot read is consistent
// by itself, so the wire server can extract deltas while writers
// proceed.
func (db *DB) ExtractDelta(since uint64) *Delta {
	return db.ExtractDeltaFiltered(since, nil)
}

// ExtractDeltaFiltered is ExtractDelta with a row filter: a non-nil
// keep decides, per table and version key, whether a modified row is
// shipped. Skipped rows are counted but their stamps still travel —
// the replica's version log mirrors the primary's either way, only the
// row set is subscription-bounded. A nil keep ships everything.
func (db *DB) ExtractDeltaFiltered(since uint64, keep func(table string, key int64) bool) *Delta {
	stamps, epoch := db.vlog.ModifiedSince(since)
	d := &Delta{Since: since, Epoch: epoch, Stamps: stamps}
	for _, name := range db.TableNames() {
		t, ok := db.Table(name)
		if !ok {
			continue
		}
		idxs, verPos, vlog := t.meta()
		if verPos < 0 || vlog == nil {
			continue // not version-tracked: not replicated
		}
		td := TableDelta{
			Schema:     t.Schema,
			VersionKey: t.Schema.Cols[verPos].Name,
		}
		for _, ix := range idxs {
			if ix.Name == t.Schema.Name+"_pk" {
				continue
			}
			td.Indexes = append(td.Indexes, IndexSpec{Name: ix.Name, Column: ix.Column, Unique: ix.Unique})
		}
		if len(stamps) > 0 {
			t.ScanAt(epoch, func(id int, row Row) bool {
				if k, ok := rowVersionKey(row, verPos); ok {
					if _, mod := stamps[k]; mod {
						if keep != nil && !keep(td.Schema.Name, k) {
							d.Skipped++
							return true
						}
						td.Rows = append(td.Rows, row)
					}
				}
				return true
			})
		}
		d.Tables = append(d.Tables, td)
	}
	return d
}

// rowVersionKey extracts the integer version key of a row (false for
// NULL or non-integer keys, which the version log never tracks).
func rowVersionKey(row Row, verPos int) (int64, bool) {
	if verPos < 0 || verPos >= len(row) {
		return 0, false
	}
	if v := row[verPos]; v.Kind() == types.KindInt {
		return v.Int(), true
	}
	return 0, false
}

// ApplyDelta applies a replication delta: per table, every row whose
// version key is in the delta's modified set is deleted and the
// shipped rows are inserted in their place; missing tables and indexes
// are created first. The row changes are one write unit over every
// affected table, published with Replicate: the replica's log copies
// the primary's stamps rather than inventing local epochs, and the
// whole delta becomes visible to replica readers at once. On any error
// the unit aborts, the catalog changes are undone and the version log
// is left untouched.
func (db *DB) ApplyDelta(d *Delta) error {
	return db.ApplyDeltaCtx(context.Background(), d)
}

// ApplyDeltaCtx is ApplyDelta with cancellation: the context is checked
// before any mutation and again between tables, and a cancelled apply
// rolls back completely — the replica keeps its pre-apply state, never
// a partially applied delta. (Within one table the apply is not
// interruptible; tables are the granularity at which a pull of many
// tables can be abandoned early.)
func (db *DB) ApplyDeltaCtx(ctx context.Context, d *Delta) error {
	if d == nil {
		return fmt.Errorf("storage: nil delta")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// catUndo reverses catalog changes (created tables and indexes,
	// version-key redesignations), which the unit does not cover.
	var catUndo []func()
	undoCatalog := func() {
		for i := len(catUndo) - 1; i >= 0; i-- {
			catUndo[i]()
		}
	}
	targets := make([]*Table, len(d.Tables))
	for i := range d.Tables {
		t, err := db.ensureDeltaTable(&d.Tables[i], &catUndo)
		if err != nil {
			undoCatalog()
			return err
		}
		targets[i] = t
	}
	c := db.Begin(targets...)
	var err error
	for i := range d.Tables {
		if err = ctx.Err(); err != nil {
			break
		}
		if err = applyTableDelta(c, targets[i], &d.Tables[i], d.Stamps); err != nil {
			break
		}
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		c.Abort()
		undoCatalog()
		return err
	}
	c.Replicate(d.Epoch, d.Stamps)
	return nil
}

// DiscardSince erases every row whose version key was modified after
// the given epoch — the divergence-erasing step of a deposed primary's
// rejoin: writes it accepted after the promotion base epoch were never
// replicated, so before pulling from the new primary it rewinds to the
// base and lets the following sync re-ship the authoritative rows. The
// discard is a self-delta (this database's own stamps, no rows) and so
// inherits ApplyDelta's atomicity. It reports whether anything was
// discarded: a caller that erased divergent keys must make its next
// pull a full one (since 0) — the new primary never modified those
// keys, so an incremental delta would not re-ship their authoritative
// rows.
func (db *DB) DiscardSince(since uint64) (bool, error) {
	stamps, epoch := db.vlog.ModifiedSince(since)
	if len(stamps) == 0 {
		return false, nil
	}
	d := &Delta{Since: since, Epoch: epoch, Stamps: stamps}
	for _, name := range db.TableNames() {
		t, ok := db.Table(name)
		if !ok {
			continue
		}
		_, verPos, vlog := t.meta()
		if verPos < 0 || vlog == nil {
			continue
		}
		d.Tables = append(d.Tables, TableDelta{
			Schema:     t.Schema,
			VersionKey: t.Schema.Cols[verPos].Name,
		})
	}
	return true, db.ApplyDelta(d)
}

// ensureDeltaTable resolves (or creates) the delta's target table,
// including its version-key designation and secondary indexes. Every
// catalog change is paired with an undo closure appended to catUndo,
// so a later failure of the same apply can put the catalog back.
func (db *DB) ensureDeltaTable(td *TableDelta, catUndo *[]func()) (*Table, error) {
	if td.Schema == nil || td.Schema.Name == "" {
		return nil, fmt.Errorf("storage: delta table without a schema")
	}
	if _, existed := db.Table(td.Schema.Name); !existed {
		if err := db.CreateTable(td.Schema, false); err != nil {
			return nil, err
		}
		name := td.Schema.Name
		*catUndo = append(*catUndo, func() { _ = db.DropTable(name, true) })
	}
	t, _ := db.Table(td.Schema.Name)
	if td.VersionKey != "" {
		_, prevPos, prevLog := t.meta()
		if err := t.SetVersionKey(td.VersionKey, db.vlog); err != nil {
			return nil, err
		}
		if _, pos, log := t.meta(); prevPos != pos || prevLog != log {
			*catUndo = append(*catUndo, func() {
				t.metaMu.Lock()
				t.verPos, t.vlog = prevPos, prevLog
				t.metaMu.Unlock()
			})
		}
	}
	for _, ix := range td.Indexes {
		if !t.HasIndex(ix.Name) {
			if err := t.CreateIndex(ix.Name, ix.Column, ix.Unique); err != nil {
				return nil, err
			}
			name := ix.Name
			*catUndo = append(*catUndo, func() { t.dropIndex(name) })
		}
	}
	return t, nil
}

// applyTableDelta stages, in one table, the replacement of every row
// keyed by a modified version key with the delta's shipped rows.
func applyTableDelta(c *Commit, t *Table, td *TableDelta, stamps map[int64]uint64) error {
	_, verPos, _ := t.meta()
	// Delete phase: collect ids first — the scan must not observe its
	// own deletions.
	var stale []int
	t.ScanAt(Current, func(id int, row Row) bool {
		if k, ok := rowVersionKey(row, verPos); ok {
			if _, mod := stamps[k]; mod {
				stale = append(stale, id)
			}
		}
		return true
	})
	for _, id := range stale {
		if err := t.DeleteC(c, id); err != nil {
			return fmt.Errorf("storage: delta delete in %s: %v", t.Schema.Name, err)
		}
	}
	c.ReserveInserts(t, len(td.Rows))
	for _, row := range td.Rows {
		if _, err := t.InsertC(c, row); err != nil {
			return fmt.Errorf("storage: delta insert into %s: %v", t.Schema.Name, err)
		}
	}
	return nil
}
