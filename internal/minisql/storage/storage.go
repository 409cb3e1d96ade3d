// Package storage implements the physical layer of the minisql engine:
// table schemas (catalog), in-memory multi-version tables and hash
// indexes maintained under DML. The PDM database server holds one
// storage.DB per instance.
//
// Concurrency contract (MVCC with one write unit):
//
//   - Every row lives in a slot holding an immutable version chain.
//     A version's begin epoch is the VersionLog epoch of the unit that
//     published it; a deletion pushes a tombstone version. Readers
//     resolve a slot at a snapshot epoch by walking the chain to the
//     newest version whose begin epoch is <= the snapshot — so reads
//     take no locks at all and never block writers.
//   - Every write goes through one mechanism, the Commit unit. DB.Begin
//     latches the unit's tables in name order; InsertC/UpdateC/DeleteC
//     stage pending versions, invisible to every snapshot; Commit stamps
//     them all with one fresh epoch inside the log's critical section,
//     so a concurrent snapshot sees either none or all of a unit's rows.
//     A replica's delta apply is the same unit, published by Replicate
//     at the primary's epoch. Abort reverts in place and leaves no
//     epoch, stamp or version behind.
//   - Catalog operations (CreateTable/DropTable/Table) synchronize on
//     the DB's own catalog lock; index attachment and version-key
//     changes on the table's metaMu.
package storage

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pdmtune/internal/minisql/types"
)

// ---------------------------------------------------------------------------
// Object version log
//
// The PDM layer caches fetched product structures at the client and
// needs to know when a cached entry went stale. The storage layer is
// the single place every mutation passes through, so it keeps the
// ground truth: a database-wide monotonic epoch and, per object key,
// the epoch of the object's last mutation. "Object key" is the value
// of a table's version-key column — the integer primary key by
// default (assy.obid, comp.obid), overridable per table so that link
// rows version their *parent* object (link.left): inserting or
// deleting a child link bumps the parent's version, which is exactly
// the granularity a cached single-level expansion needs.
//
// Since the MVCC redesign the log is also the commit clock: a row
// version's begin epoch is the epoch its unit committed at, and a
// snapshot is simply "the state as of epoch E".

// VersionLog records the last-modified epoch of every object key. It
// has its own lock; it is read and written from any goroutine (writers
// commit through it, snapshot readers sample it, the wire server's
// validate handler queries it).
type VersionLog struct {
	mu       sync.RWMutex
	epoch    uint64
	modified map[int64]uint64
}

// NewVersionLog returns an empty log at epoch 0.
func NewVersionLog() *VersionLog {
	return &VersionLog{modified: map[int64]uint64{}}
}

// commit advances the epoch (when keys were touched), stamps the keys,
// and runs publish inside the log's critical section. Publishing under
// the lock is what makes a unit atomic to snapshots: Epoch() can never
// return an epoch whose row versions are not yet visible, and a
// snapshot taken before the commit can never observe a partial unit.
// With no keys the epoch does not advance (only version-tracked
// mutations move the clock) and publish runs at the current epoch.
func (v *VersionLog) commit(keys []int64, publish func(epoch uint64)) uint64 {
	if v == nil {
		publish(0)
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	e := v.epoch
	if len(keys) > 0 {
		v.epoch++
		e = v.epoch
		for _, k := range keys {
			v.modified[k] = e
		}
	}
	publish(e)
	return e
}

// syncTo is commit for a replica: it fast-forwards the log to a
// primary's state — the epoch is raised to at least epoch and every
// stamp is copied verbatim — and runs publish at the primary's epoch
// inside the same critical section. After a sync the replica's log
// answers LastModified exactly as the primary's would (for the synced
// keys), which keeps client-side cache validation correct against a
// replica.
func (v *VersionLog) syncTo(epoch uint64, stamps map[int64]uint64, publish func(epoch uint64)) {
	if v == nil {
		publish(epoch)
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.epoch = max(v.epoch, epoch)
	for k, e := range stamps {
		if e > v.modified[k] {
			v.modified[k] = e
		}
	}
	publish(epoch)
}

// Epoch returns the current epoch (the stamp a fetch made now would
// carry, and the snapshot a statement started now would read at).
func (v *VersionLog) Epoch() uint64 {
	if v == nil {
		return 0
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.epoch
}

// LastModified returns the epoch of the key's last mutation (0 when
// the object was never mutated since the log started).
func (v *VersionLog) LastModified(key int64) uint64 {
	if v == nil {
		return 0
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.modified[key]
}

// ---------------------------------------------------------------------------
// Schemas and rows

// Column is one column of a table schema.
type Column struct {
	Name       string
	Type       types.ColumnType
	NotNull    bool
	PrimaryKey bool
	HasDefault bool
	Default    types.Value
}

// Schema is the catalog entry of a table.
type Schema struct {
	Name string
	Cols []Column
}

// ColIndex returns the position of the named column (case-insensitive),
// or -1 if absent.
func (s *Schema) ColIndex(name string) int {
	for i := range s.Cols {
		if strings.EqualFold(s.Cols[i].Name, name) {
			return i
		}
	}
	return -1
}

// ColNames returns the column names in declaration order.
func (s *Schema) ColNames() []string {
	out := make([]string, len(s.Cols))
	for i := range s.Cols {
		out[i] = s.Cols[i].Name
	}
	return out
}

// Row is one tuple; len(Row) == len(Schema.Cols). Rows are immutable
// once stored: an update creates a new version with a new row slice.
type Row = []types.Value

// ---------------------------------------------------------------------------
// Version chains

// Snapshot epochs. Latest reads the newest committed state; pending
// marks a version created by a unit that has not committed yet
// (invisible to every snapshot, Latest included).
const (
	pendingEpoch = ^uint64(0)
	// Latest is the snapshot epoch denoting the latest committed state.
	Latest = ^uint64(0) - 1
	// Current reads every chain's head: the committed state plus the
	// pending versions of the unit that holds the table's latch. Only
	// that unit may read a table at Current.
	Current = pendingEpoch
)

// version is one immutable revision of a slot's row. row == nil marks a
// deletion tombstone. begin is the commit epoch (pendingEpoch until the
// owning unit's Commit stamps it); prev links to the superseded
// version, giving snapshot readers the chain to walk.
type version struct {
	row   Row
	begin atomic.Uint64
	prev  *version
}

// slot is one logical row: a stable id owning a version chain. The head
// pointer is the only mutable cell; it is published atomically so
// lock-free readers always see a fully built version.
type slot struct {
	head atomic.Pointer[version]
}

// visibleVersion resolves a chain at a snapshot epoch: the newest
// version committed at or before it (nil when the slot did not exist).
func visibleVersion(head *version, epoch uint64) *version {
	for v := head; v != nil; v = v.prev {
		if v.begin.Load() <= epoch {
			return v
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Write units

// Commit is the one write unit. Every row mutation stages into one: a
// statement, a multi-statement procedure and a replica's delta apply
// alike. Begin takes the write latches of the unit's tables;
// InsertC/UpdateC/DeleteC create pending versions, invisible to every
// snapshot and to Latest; Commit stamps them all with one fresh epoch
// inside the version log's critical section, Replicate stamps them with
// a primary's epoch, and Abort physically reverts them. All three
// release the latches; the unit must not be reused.
type Commit struct {
	vlog   *VersionLog
	tables []*Table // latched, in name order
	wait   time.Duration
	keys   []int64
	pend   []staged
	slab   slab
	done   bool
}

// slab is what a unit carves the row arrays, versions and slots it
// stages from, so that the rows of one statement lie in memory in
// row-id order. ReserveInserts and ReserveUpdates size it exactly from
// the statement, leaving no unused tail; a unit without a reservation
// (or past it) allocates per row.
type slab struct {
	t     *Table
	vals  []types.Value
	vers  []version
	slots []slot
}

// staged is one pending version and the slot it heads: reverting it
// puts its predecessor back.
type staged struct {
	t *Table
	s *slot
	v *version
}

// Begin opens a write unit over the given tables. It takes each table's
// write latch once, in case-insensitive name order: the one order every
// writer latches in, so two units never deadlock.
func (db *DB) Begin(tables ...*Table) *Commit { return begin(db.vlog, tables) }

func begin(vlog *VersionLog, tables []*Table) *Commit {
	tables = slices.Clone(tables)
	slices.SortFunc(tables, func(a, b *Table) int {
		return strings.Compare(strings.ToLower(a.Schema.Name), strings.ToLower(b.Schema.Name))
	})
	c := &Commit{vlog: vlog, tables: slices.Compact(tables)}
	for _, t := range c.tables {
		if !t.latch.TryLock() {
			start := time.Now()
			t.latch.Lock()
			c.wait += time.Since(start)
		}
	}
	return c
}

// LockWait is the time Begin spent blocked on latches other units held.
func (c *Commit) LockWait() time.Duration { return c.wait }

// Holds reports whether the open unit latched t (false for a nil unit).
func (c *Commit) Holds(t *Table) bool {
	return c != nil && !c.done && slices.Contains(c.tables, t)
}

// ReserveInserts sizes the unit's slab for the next n InsertC calls into
// t: their row arrays, versions and slots come from one allocation each,
// and the slot array grows once. A reservation of fewer than two rows
// is none — one row costs the same either way.
func (c *Commit) ReserveInserts(t *Table, n int) { c.reserve(t, n, true) }

// ReserveUpdates sizes the unit's slab for the next n UpdateC calls into
// t: their row arrays and versions.
func (c *Commit) ReserveUpdates(t *Table, n int) { c.reserve(t, n, false) }

func (c *Commit) reserve(t *Table, n int, inserts bool) {
	c.slab = slab{}
	if n < 2 {
		return
	}
	c.slab = slab{t: t, vals: make([]types.Value, n*len(t.Schema.Cols)), vers: make([]version, n)}
	if inserts {
		c.slab.slots = make([]slot, n)
		t.growSlots(n)
	}
	c.pend = slices.Grow(c.pend, n)
}

// newRow carves a row array for t from the slab, or allocates one.
func (c *Commit) newRow(t *Table) Row {
	w := len(t.Schema.Cols)
	if c.slab.t != t || len(c.slab.vals) < w {
		return make(Row, w)
	}
	r := c.slab.vals[:w:w]
	c.slab.vals = c.slab.vals[w:]
	return r
}

// newVersion carves a pending version of row for t from the slab, or
// allocates one.
func (c *Commit) newVersion(t *Table, row Row, prev *version) *version {
	v := carve(c, t, &c.slab.vers)
	v.row, v.prev = row, prev
	v.begin.Store(pendingEpoch)
	return v
}

// carve takes the next element of one of the slab's parts when the slab
// is t's, or allocates one.
func carve[T any](c *Commit, t *Table, part *[]T) *T {
	if c.slab.t != t || len(*part) == 0 {
		return new(T)
	}
	e := &(*part)[0]
	*part = (*part)[1:]
	return e
}

// addKey records the version key of a row the unit touched.
func (c *Commit) addKey(verPos int, row Row) {
	if k, ok := rowVersionKey(row, verPos); ok {
		c.keys = append(c.keys, k)
	}
}

// Commit publishes the unit at one fresh epoch and returns it. A unit
// that touched no version-tracked row publishes at the current epoch
// without advancing it.
func (c *Commit) Commit() uint64 {
	if c.done {
		return 0
	}
	e := c.vlog.commit(c.keys, c.stamp)
	c.release()
	return e
}

// Replicate is a replica's publish: the pending versions are stamped at
// the primary's epoch, and the log is raised to it and copies the
// primary's per-key stamps instead of minting its own (see syncTo). The
// keys the unit recorded are ignored.
func (c *Commit) Replicate(epoch uint64, stamps map[int64]uint64) {
	if c.done {
		return
	}
	c.vlog.syncTo(epoch, stamps, c.stamp)
	c.release()
}

// Abort reverts every pending version, newest first, and releases the
// latches. The unit leaves no epoch, no stamp and no visible version.
func (c *Commit) Abort() {
	if c.done {
		return
	}
	for i := len(c.pend) - 1; i >= 0; i-- {
		p := c.pend[i]
		p.s.head.Store(p.v.prev)
		switch {
		case p.v.prev == nil: // an insert: the slot is dead to every reader
			p.t.liveN.Add(-1)
		case p.v.row == nil: // a delete
			p.t.liveN.Add(1)
		}
	}
	c.release()
}

func (c *Commit) stamp(e uint64) {
	for _, p := range c.pend {
		p.v.begin.Store(e)
	}
}

func (c *Commit) release() {
	c.done = true
	c.slab = slab{}
	for i := len(c.tables) - 1; i >= 0; i-- {
		c.tables[i].latch.Unlock()
	}
}

// ---------------------------------------------------------------------------
// Indexes

// Index is a hash index over a single column. Buckets map a value's key
// (types.Value.Key) to the slot ids that ever carried the value; lookups
// filter the candidates against the rows visible at the requested
// snapshot, so superseded versions never leak out and no bucket
// maintenance is needed when a version dies. The bucket map has its own
// small lock (mutations run under the table's write latch, but lock-free
// readers look buckets up concurrently). A bucket only ever grows by
// append, or is replaced by a sorted copy, so a reader may walk the
// slice it found after releasing the lock.
type Index struct {
	Name   string
	Column string
	colPos int
	Unique bool

	t       *Table
	mu      sync.RWMutex
	buckets map[types.Value][]int
}

// add registers a slot id under the value's key (idempotent: a slot
// re-acquiring a value it already had keeps one entry). fresh says the
// slot cannot be in the index yet — it was just appended, or the index
// is being built — which spares a bulk load the scan of its
// low-cardinality buckets, quadratic in the rows loaded.
func (ix *Index) add(v types.Value, id int, fresh bool) {
	key := v.Key()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	b := ix.buckets[key]
	if !fresh && slices.Contains(b, id) {
		return
	}
	ix.buckets[key] = append(b, id)
}

// candidates returns the bucket for the value's key: read it, never
// write it.
func (ix *Index) candidates(v types.Value) []int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.buckets[v.Key()]
}

// Key is a distinct key of an index, as a value of the column's kind, and
// the number of ids its bucket lists, stale ones included.
type Key struct {
	Value types.Value
	N     int
}

// Keys returns the index's keys, or ok false when there are more than
// max. A FLOAT column's integral keys are INTEGERs, so they are turned
// back into FLOATs (-0.0 into 0.0). A row is indexed before it is
// published, so they include the value of every row visible at an epoch
// taken before the call.
func (ix *Index) Keys(max int) (keys []Key, ok bool) {
	float := ix.t.Schema.Cols[ix.colPos].Type.Kind == types.KindFloat
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(ix.buckets) > max {
		return nil, false
	}
	for v, ids := range ix.buckets {
		if float && v.Kind() == types.KindInt {
			v = types.NewFloat(float64(v.Int()))
		}
		keys = append(keys, Key{v, len(ids)})
	}
	return keys, true
}

// Count returns how many ids the buckets of vals list together.
func (ix *Index) Count(vals []types.Value) (n int) {
	for _, v := range vals {
		n += len(ix.candidates(v))
	}
	return n
}

// ascending returns the bucket for the value's key in ascending id
// order. Inserts append ascending ids, so only a bucket an update has
// added an older row to is out of order; the first lookup after such an
// update replaces it by a sorted copy, under the lock.
func (ix *Index) ascending(v types.Value) []int {
	b := ix.candidates(v)
	if slices.IsSorted(b) {
		return b
	}
	key := v.Key()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	b = slices.Clone(ix.buckets[key])
	slices.Sort(b)
	ix.buckets[key] = b
	return b
}

// LookupAt calls fn for every row whose indexed column equals v in the
// snapshot at the given epoch, with its id, in ascending id order — the
// order of a scan — until fn returns false. Candidates come from the
// hash bucket and are verified against the visible row, so entries left
// behind by old versions are filtered here; each is resolved once.
func (ix *Index) LookupAt(epoch uint64, v types.Value, fn func(id int, row Row) bool) {
	ids := ix.ascending(v)
	sl := ix.t.published()
	for _, id := range ids {
		if id >= len(sl) {
			continue
		}
		ver := visibleVersion(sl[id].head.Load(), epoch)
		if ver == nil || ver.row == nil || !types.SameKey(ver.row[ix.colPos], v) {
			continue
		}
		if !fn(id, ver.row) {
			return
		}
	}
}

// checkUnique reports a duplicate-key error when a row other than self
// currently carries the value (pending versions of the open unit
// included — the unit sees its own effects).
func (ix *Index) checkUnique(v types.Value, self int) error {
	if !ix.Unique || v.IsNull() {
		return nil
	}
	for _, id := range ix.candidates(v) {
		if id == self {
			continue
		}
		if row, ok := ix.t.currentRow(id); ok && types.SameKey(row[ix.colPos], v) {
			return fmt.Errorf("storage: duplicate key %s for unique index %s", v, ix.Name)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Tables

// Table is a multi-version table: an append-only array of slots, each
// owning a version chain. Snapshot readers (GetAt/ScanAt/LookupAt) are
// lock-free; writers stage into a unit that holds the table's write
// latch.
type Table struct {
	Schema *Schema

	// latch is the per-table write latch. Only DB.Begin takes it, for the
	// life of one unit; the mutation methods require it held.
	latch sync.Mutex

	// slots is the slot array, of which the first nslots entries are
	// published. A writer fills the entry past them and then raises
	// nslots; a full array is replaced by a larger copy before that. A
	// reader loads nslots first and the array second (published), so it
	// sees every entry it counts.
	slots  atomic.Pointer[[]*slot]
	nslots atomic.Int64
	liveN  atomic.Int64

	// metaMu guards the index list and the version-key designation
	// (mutated by DDL and delta bootstrap, read by every statement).
	metaMu  sync.RWMutex
	indexes []*Index
	vlog    *VersionLog
	verPos  int
}

// NewTable creates an empty table for the schema. A unique index is
// created automatically for a PRIMARY KEY column.
func NewTable(schema *Schema) (*Table, error) {
	t := &Table{Schema: schema, verPos: -1}
	empty := make([]*slot, 0)
	t.slots.Store(&empty)
	for i, c := range schema.Cols {
		if c.PrimaryKey {
			idx := &Index{
				Name:    schema.Name + "_pk",
				Column:  c.Name,
				colPos:  i,
				Unique:  true,
				t:       t,
				buckets: map[types.Value][]int{},
			}
			t.indexes = append(t.indexes, idx)
			t.verPos = i // objects version by their primary key by default
		}
	}
	return t, nil
}

// SetVersionKey designates the column whose integer value identifies
// the versioned object of each row (overriding the primary-key
// default) and attaches the log the table reports bumps to.
func (t *Table) SetVersionKey(column string, vlog *VersionLog) error {
	pos := t.Schema.ColIndex(column)
	if pos < 0 {
		return fmt.Errorf("storage: table %s has no column %s", t.Schema.Name, column)
	}
	t.metaMu.Lock()
	t.verPos = pos
	t.vlog = vlog
	t.metaMu.Unlock()
	return nil
}

// meta returns the table's index list and version-key position under
// the meta lock (the slice is append-only, so holding the returned
// header without the lock is safe).
func (t *Table) meta() ([]*Index, int, *VersionLog) {
	t.metaMu.RLock()
	defer t.metaMu.RUnlock()
	return t.indexes, t.verPos, t.vlog
}

// NumRows reports the number of live rows (pending mutations of an
// open unit included).
func (t *Table) NumRows() int { return int(t.liveN.Load()) }

// CreateIndex attaches a hash index on the named column and backfills
// it from the current rows. Callers mutating concurrently must hold
// the write latch (the engine's unit does); snapshot readers only see the
// index after it is fully built.
func (t *Table) CreateIndex(name, column string, unique bool) error {
	pos := t.Schema.ColIndex(column)
	if pos < 0 {
		return fmt.Errorf("storage: table %s has no column %s", t.Schema.Name, column)
	}
	if t.HasIndex(name) {
		return fmt.Errorf("storage: index %s already exists", name)
	}
	idx := &Index{Name: name, Column: column, colPos: pos, Unique: unique, t: t, buckets: map[types.Value][]int{}}
	for id, s := range t.published() {
		row, ok := currentOf(s)
		if !ok {
			continue
		}
		if err := idx.checkUnique(row[pos], id); err != nil {
			return err
		}
		idx.add(row[pos], id, true)
	}
	t.metaMu.Lock()
	t.indexes = append(t.indexes, idx)
	t.metaMu.Unlock()
	return nil
}

// HasIndex reports whether an index with the given name exists.
func (t *Table) HasIndex(name string) bool {
	idxs, _, _ := t.meta()
	for _, idx := range idxs {
		if strings.EqualFold(idx.Name, name) {
			return true
		}
	}
	return false
}

// IndexOn returns the index covering the column, or nil.
func (t *Table) IndexOn(column string) *Index {
	idxs, _, _ := t.meta()
	for _, idx := range idxs {
		if strings.EqualFold(idx.Column, column) {
			return idx
		}
	}
	return nil
}

// Indexes returns all attached indexes.
func (t *Table) Indexes() []*Index {
	idxs, _, _ := t.meta()
	return idxs
}

// dropIndex detaches an index by name (the catalog rollback of a
// failed delta apply; a no-op when the index does not exist).
func (t *Table) dropIndex(name string) {
	t.metaMu.Lock()
	defer t.metaMu.Unlock()
	for i, ix := range t.indexes {
		if strings.EqualFold(ix.Name, name) {
			t.indexes = append(t.indexes[:i], t.indexes[i+1:]...)
			return
		}
	}
}

// checkRow validates arity, NOT NULL and coerces values to column types,
// into a row array of the unit's: the caller's row is not retained.
func (t *Table) checkRow(c *Commit, row Row) (Row, error) {
	if len(row) != len(t.Schema.Cols) {
		return nil, fmt.Errorf("storage: table %s expects %d values, got %d",
			t.Schema.Name, len(t.Schema.Cols), len(row))
	}
	out := c.newRow(t)
	for i, c := range t.Schema.Cols {
		v, err := types.Coerce(row[i], c.Type)
		if err != nil {
			return nil, fmt.Errorf("storage: column %s.%s: %v", t.Schema.Name, c.Name, err)
		}
		if v.IsNull() && (c.NotNull || c.PrimaryKey) {
			return nil, fmt.Errorf("storage: column %s.%s is NOT NULL", t.Schema.Name, c.Name)
		}
		out[i] = v
	}
	return out, nil
}

// currentOf resolves a slot's current row — the chain head, pending
// versions included — which is the state a writer holding the latch
// operates on.
func currentOf(s *slot) (Row, bool) {
	h := s.head.Load()
	if h == nil || h.row == nil {
		return nil, false
	}
	return h.row, true
}

// currentRow is currentOf by slot id.
func (t *Table) currentRow(id int) (Row, bool) {
	sl := t.published()
	if id < 0 || id >= len(sl) {
		return nil, false
	}
	return currentOf(sl[id])
}

// published returns the published slots. Lock-free.
func (t *Table) published() []*slot {
	n := t.nslots.Load()
	return (*t.slots.Load())[:n]
}

// growSlots makes room for extra slots past the published ones, moving
// the array to a larger copy when it is too small. The caller's unit
// holds the write latch.
func (t *Table) growSlots(extra int) []*slot {
	arr, n := *t.slots.Load(), int(t.nslots.Load())
	if n+extra <= len(arr) {
		return arr
	}
	next := make([]*slot, max(n+extra, 2*len(arr)))
	copy(next, arr[:n])
	t.slots.Store(&next)
	return next
}

// appendSlot publishes a new slot and returns its id. The caller's unit
// holds the write latch; the atomic count store releases the element
// write to concurrent readers.
func (t *Table) appendSlot(s *slot) int {
	id := int(t.nslots.Load())
	t.growSlots(1)[id] = s
	t.nslots.Store(int64(id + 1))
	return id
}

// InsertC validates a row and stages it in the unit as a pending
// version, returning its slot id. The unit holds the table's latch.
func (t *Table) InsertC(c *Commit, row Row) (int, error) {
	r, err := t.checkRow(c, row)
	if err != nil {
		return 0, err
	}
	idxs, verPos, _ := t.meta()
	for _, ix := range idxs {
		if err := ix.checkUnique(r[ix.colPos], -1); err != nil {
			return 0, err
		}
	}
	v := c.newVersion(t, r, nil)
	s := carve(c, t, &c.slab.slots)
	s.head.Store(v)
	id := t.appendSlot(s)
	for _, ix := range idxs {
		ix.add(r[ix.colPos], id, true)
	}
	t.liveN.Add(1)
	c.pend = append(c.pend, staged{t, s, v})
	c.addKey(verPos, r)
	return id, nil
}

// UpdateC stages a replacement of the row with the given id in the unit
// as a pending version. The unit holds the table's latch.
func (t *Table) UpdateC(c *Commit, id int, row Row) error {
	s, old, err := t.liveSlot(id)
	if err != nil {
		return err
	}
	r, err := t.checkRow(c, row)
	if err != nil {
		return err
	}
	idxs, verPos, _ := t.meta()
	for _, ix := range idxs {
		if types.SameKey(old[ix.colPos], r[ix.colPos]) {
			continue
		}
		if err := ix.checkUnique(r[ix.colPos], id); err != nil {
			return err
		}
	}
	v := c.newVersion(t, r, s.head.Load())
	s.head.Store(v)
	for _, ix := range idxs {
		if !types.SameKey(old[ix.colPos], r[ix.colPos]) {
			ix.add(r[ix.colPos], id, false)
		}
	}
	c.pend = append(c.pend, staged{t, s, v})
	c.addKey(verPos, old)
	c.addKey(verPos, r)
	return nil
}

// DeleteC stages a tombstone for the row with the given id in the unit.
// The unit holds the table's latch.
func (t *Table) DeleteC(c *Commit, id int) error {
	s, old, err := t.liveSlot(id)
	if err != nil {
		return err
	}
	_, verPos, _ := t.meta()
	v := c.newVersion(t, nil, s.head.Load()) // tombstone
	s.head.Store(v)
	t.liveN.Add(-1)
	c.pend = append(c.pend, staged{t, s, v})
	c.addKey(verPos, old)
	return nil
}

// liveSlot resolves the slot of a row that is live at its chain head.
func (t *Table) liveSlot(id int) (*slot, Row, error) {
	sl := t.published()
	if id >= 0 && id < len(sl) {
		if old, ok := currentOf(sl[id]); ok {
			return sl[id], old, nil
		}
	}
	return nil, nil, fmt.Errorf("storage: row %d of %s does not exist", id, t.Schema.Name)
}

// GetAt returns the row with the given id as visible at the snapshot
// epoch. Lock-free.
func (t *Table) GetAt(epoch uint64, id int) (Row, bool) {
	sl := t.published()
	if id < 0 || id >= len(sl) {
		return nil, false
	}
	v := visibleVersion(sl[id].head.Load(), epoch)
	if v == nil || v.row == nil {
		return nil, false
	}
	return v.row, true
}

// Get returns the row with the given id in the latest committed state.
func (t *Table) Get(id int) (Row, bool) { return t.GetAt(Latest, id) }

// ScanAt calls fn for every row visible at the snapshot epoch, in
// insertion order, until fn returns false. Lock-free; the row must not
// be mutated by fn.
func (t *Table) ScanAt(epoch uint64, fn func(id int, row Row) bool) {
	for id, s := range t.published() {
		v := visibleVersion(s.head.Load(), epoch)
		if v == nil || v.row == nil {
			continue
		}
		if !fn(id, v.row) {
			return
		}
	}
}

// Scan calls fn for every live row of the latest committed state in
// insertion order until fn returns false.
func (t *Table) Scan(fn func(id int, row Row) bool) { t.ScanAt(Latest, fn) }

// ---------------------------------------------------------------------------
// Database catalog

// DB is a set of named tables. The catalog map has its own lock;
// individual tables carry their own write latches and lock-free read
// paths (see the package comment for the full concurrency contract).
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// vlog is the database-wide object version log every
	// version-tracked table commits through.
	vlog *VersionLog
	// versionKeys maps lower-cased table names to version-key column
	// overrides, applied when the table is (re)created.
	versionKeys map[string]string
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: map[string]*Table{}, vlog: NewVersionLog(), versionKeys: map[string]string{}}
}

// Versions exposes the database's object version log.
func (db *DB) Versions() *VersionLog { return db.vlog }

// SetVersionKey overrides the version-key column of a table: its rows
// then version the object identified by that column's value instead of
// their primary key (e.g. link rows versioning their parent via
// "left"). The override applies immediately when the table exists and
// is remembered for tables created later.
func (db *DB) SetVersionKey(table, column string) error {
	db.mu.Lock()
	db.versionKeys[strings.ToLower(table)] = column
	t, ok := db.tables[strings.ToLower(table)]
	db.mu.Unlock()
	if ok {
		return t.SetVersionKey(column, db.vlog)
	}
	return nil
}

// Table resolves a table by name (case-insensitive).
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// TableNames lists tables in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CreateTable registers a new table.
func (db *DB) CreateTable(schema *Schema, ifNotExists bool) error {
	key := strings.ToLower(schema.Name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[key]; exists {
		if ifNotExists {
			return nil
		}
		return fmt.Errorf("storage: table %s already exists", schema.Name)
	}
	if len(schema.Cols) == 0 {
		return fmt.Errorf("storage: table %s has no columns", schema.Name)
	}
	seen := map[string]bool{}
	for _, c := range schema.Cols {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return fmt.Errorf("storage: duplicate column %s in table %s", c.Name, schema.Name)
		}
		seen[lc] = true
	}
	t, err := NewTable(schema)
	if err != nil {
		return err
	}
	t.vlog = db.vlog
	if col, ok := db.versionKeys[key]; ok {
		if err := t.SetVersionKey(col, db.vlog); err != nil {
			return err
		}
	}
	db.tables[key] = t
	return nil
}

// DropTable removes a table.
func (db *DB) DropTable(name string, ifExists bool) error {
	key := strings.ToLower(name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[key]; !ok {
		if ifExists {
			return nil
		}
		return fmt.Errorf("storage: table %s does not exist", name)
	}
	delete(db.tables, key)
	return nil
}
