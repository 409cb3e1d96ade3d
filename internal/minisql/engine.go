// Package minisql is the engine facade of the from-scratch relational
// database that substitutes for the commercial RDBMS underneath the
// paper's PDM system. It wires the lexer/parser, executor and storage
// into a DB with sessions, write units, parameters, stored functions
// and stored procedures.
//
// The SQL dialect covers what the paper's workload requires: DDL, DML,
// SELECT with joins / set operations / subqueries / aggregates / CAST /
// CASE, and SQL:1999 WITH RECURSIVE — the engine runs the paper's
// Section 5 example queries verbatim (modulo the minor syntactic changes
// the paper itself notes for DB2).
package minisql

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/exec"
	"pdmtune/internal/minisql/parser"
	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
)

// Value and Row re-export the engine's value model so callers need not
// import the internal subpackages.
type Value = types.Value

// Row is one result tuple.
type Row = storage.Row

// Result is the outcome of one statement.
type Result struct {
	// Cols are the output column names (empty for non-queries). A
	// SELECT's are its plan's, shared by every execution: read-only.
	Cols []string
	// Rows are the output tuples (nil for non-queries).
	Rows []storage.Row
	// RowsAffected counts rows written by INSERT/UPDATE/DELETE.
	RowsAffected int
	// Epoch is the version-log epoch the statement read: a SELECT's
	// snapshot, and for any other statement the epoch it started at.
	Epoch uint64
}

// ScalarFunc is a server-registered scalar function, the engine's
// equivalent of an SQL/PSM stored function (paper Section 3.2: conditions
// beyond standard predicates are evaluated by "stored functions ...
// provided at the server").
type ScalarFunc = exec.ScalarFunc

// Procedure is a server-side stored procedure invoked via CALL. It runs
// inside the server with full access to a session — the paper's Section 6
// "function shipping" remedy for check-out style actions.
type Procedure func(s *Session, args []Value) (*Result, error)

// DB is an in-memory database instance, safe for concurrent use by any
// number of sessions.
//
// Concurrency model (the MVCC redesign; see also storage's package
// comment): a read statement captures the version-log epoch once and
// evaluates entirely against that snapshot — it takes no locks and is
// never blocked by writers. A write statement is a write unit
// (storage.Commit) of its own over its target table: it takes only that
// table's write latch, stages its mutations as pending row versions,
// and publishes them atomically under one fresh epoch. Session.Begin
// opens a unit over several tables that several statements stage into.
type DB struct {
	store *storage.DB

	// regMu guards the registries. The function/procedure maps are
	// copy-on-write so statements can read them lock-free after grabbing
	// the reference.
	regMu sync.RWMutex
	funcs map[string]ScalarFunc
	procs map[string]Procedure

	// plans is the statement table: parsed statements by SQL text, so
	// repeated Execs skip lexing and parsing entirely, and prepared
	// statements by handle (see stmttable.go).
	plans *stmtTable
}

// NewDB creates an empty database with the built-in function library.
func NewDB() *DB {
	db := &DB{
		store: storage.NewDB(),
		funcs: map[string]ScalarFunc{},
		procs: map[string]Procedure{},
		plans: &stmtTable{m: map[string]*stmtEntry{}},
	}
	registerBuiltins(db)
	return db
}

// SetVersionKey overrides the version-key column of a table (see
// storage.DB.SetVersionKey): its rows then bump the version of the
// object named by that column instead of their primary key. The
// override is remembered for tables created later, so it can be
// registered before the schema is loaded.
func (db *DB) SetVersionKey(table, column string) error {
	return db.store.SetVersionKey(table, column)
}

// Epoch returns the database's current modification epoch — the
// version stamp a fetch performed now would carry, and the snapshot a
// statement started now would read at.
func (db *DB) Epoch() uint64 { return db.store.Versions().Epoch() }

// ExtractDelta collects the replication delta above the given epoch:
// the rows (full rows, keyed by version key) of every object modified
// after it, plus the version stamps a replica needs to mirror this
// database's log. The extraction is a consistent snapshot read — the
// stamp set and capture epoch come from the version log atomically and
// the rows are resolved at that epoch — so no lock is held and
// concurrent writers proceed undisturbed.
func (db *DB) ExtractDelta(since uint64) *storage.Delta {
	return db.ExtractDeltaFiltered(since, nil)
}

// ExtractDeltaFiltered is ExtractDelta with a subscription filter: a
// non-nil keep decides per (table, version key) whether a modified row
// ships. Stamps always ship in full (see storage.DB.ExtractDeltaFiltered).
func (db *DB) ExtractDeltaFiltered(since uint64, keep func(table string, key int64) bool) *storage.Delta {
	return db.store.ExtractDeltaFiltered(since, keep)
}

// ModifiedSince returns the version keys modified after the given epoch
// with their stamps, plus the log's current epoch — the incremental
// feed a subscription registry uses to refresh its link closures.
func (db *DB) ModifiedSince(since uint64) (map[int64]uint64, uint64) {
	return db.store.Versions().ModifiedSince(since)
}

// ApplyDelta applies a replication delta pulled from a primary as one
// write unit over every affected table: on error the database is left
// as it was. The unit publishes at the primary's epoch and copies its
// stamps instead of bumping locally, so validate exchanges against this
// replica answer exactly as the primary would, and replica readers see
// the whole delta at once.
func (db *DB) ApplyDelta(d *storage.Delta) error {
	return db.ApplyDeltaCtx(context.Background(), d)
}

// ApplyDeltaCtx is ApplyDelta with cancellation: the context is checked
// between tables and a cancelled apply rolls back completely, leaving
// no partial state (see storage.DB.ApplyDeltaCtx).
func (db *DB) ApplyDeltaCtx(ctx context.Context, d *storage.Delta) error {
	return db.store.ApplyDeltaCtx(ctx, d)
}

// DiscardSince erases every row modified after the given epoch — the
// rewind a deposed primary performs before rejoining as a replica. It
// reports whether anything was discarded (see storage.DB.DiscardSince
// for why that forces the next pull to be a full one).
func (db *DB) DiscardSince(since uint64) (bool, error) {
	return db.store.DiscardSince(since)
}

// LastModified returns the epoch of the last mutation of the object
// with the given version key (0 when never mutated).
func (db *DB) LastModified(key int64) uint64 { return db.store.Versions().LastModified(key) }

// RegisterFunc installs a stored scalar function callable from SQL. fn
// must be deterministic (see exec.ScalarFunc).
func (db *DB) RegisterFunc(name string, fn ScalarFunc) {
	db.regMu.Lock()
	defer db.regMu.Unlock()
	m := make(map[string]ScalarFunc, len(db.funcs)+1)
	for k, v := range db.funcs {
		m[k] = v
	}
	m[strings.ToLower(name)] = fn
	db.funcs = m
}

// RegisterProc installs a stored procedure callable via CALL name(...).
func (db *DB) RegisterProc(name string, p Procedure) {
	db.regMu.Lock()
	defer db.regMu.Unlock()
	m := make(map[string]Procedure, len(db.procs)+1)
	for k, v := range db.procs {
		m[k] = v
	}
	m[strings.ToLower(name)] = p
	db.procs = m
}

// registry returns the current (immutable) function and procedure maps.
func (db *DB) registry() (map[string]ScalarFunc, map[string]Procedure) {
	db.regMu.RLock()
	defer db.regMu.RUnlock()
	return db.funcs, db.procs
}

// NumRows reports the live row count of a table (0 if absent); used by
// tests and diagnostics.
func (db *DB) NumRows(table string) int {
	t, ok := db.store.Table(table)
	if !ok {
		return 0
	}
	return t.NumRows()
}

// TableNames lists the tables in the catalog.
func (db *DB) TableNames() []string {
	return db.store.TableNames()
}

// ContentionStats counts a session's brushes with the engine's
// concurrency machinery: time spent waiting for write latches,
// snapshots opened for read statements, and first-wins write
// conflicts lost. The wire layer
// drains them per round trip into the netsim meters, which is how
// contention becomes observable per session and per site.
type ContentionStats struct {
	// LockWaitNanos is the total time spent blocked acquiring write
	// latches.
	LockWaitNanos int64
	// SnapshotsStarted counts read statements that opened a snapshot.
	SnapshotsStarted int64
	// WriteConflicts counts first-wins races lost (check-out conflicts).
	WriteConflicts int64
	// PlanHits / PlanMisses count statement-table outcomes: hits took a
	// table's AST, by text or by handle, without any lexing or parsing;
	// misses paid a full parse (and populated the table when the
	// statement is cacheable).
	PlanHits   int64
	PlanMisses int64
}

// IsZero reports whether the stats count nothing.
func (c ContentionStats) IsZero() bool { return c == ContentionStats{} }

// Session is one client connection to the database. Sessions are not
// safe for concurrent use; create one per goroutine (the wire layer
// gives each client connection an engine session of its own and
// serializes that connection's statements).
type Session struct {
	db *DB

	// unit is the write unit Begin opened, nil between units.
	unit *storage.Commit

	stats ContentionStats

	// ctx is the evaluation context of the statement running, reset
	// for each (newContext) with the scaffolding its executions reuse;
	// params holds that statement's parameters.
	ctx    exec.Context
	params []Value
}

// NewSession opens a session.
func (db *DB) NewSession() *Session { return &Session{db: db} }

// TakeContention returns the session's accumulated contention counters
// and resets them — the per-round-trip drain the wire server uses.
func (s *Session) TakeContention() ContentionStats {
	st := s.stats
	s.stats = ContentionStats{}
	return st
}

// CountWriteConflict records a lost first-wins write race (called by
// stored procedures that detect conflicts, e.g. pdm_check_out).
func (s *Session) CountWriteConflict() { s.stats.WriteConflicts++ }

// snapshotEpoch opens a read snapshot: the statement evaluates as of
// this epoch regardless of concurrent commits.
func (s *Session) snapshotEpoch() uint64 {
	s.stats.SnapshotsStarted++
	return s.db.store.Versions().Epoch()
}

// Begin opens the session's write unit over the named tables: their
// write latches are taken (storage.DB.Begin fixes the order) and held
// until Commit or Abort. Statements executed in between stage into the
// unit; each may write only the unit's tables, and reads of those
// tables see the unit's staged rows. Nobody else sees them before
// Commit publishes the whole unit at one epoch. This is how a stored
// procedure makes a read-check-update sequence atomic (first-wins
// check-out). Missing tables are skipped.
func (s *Session) Begin(tables ...string) error {
	if s.unit != nil {
		return fmt.Errorf("minisql: Begin while a write unit is open")
	}
	tabs := make([]*storage.Table, 0, len(tables))
	for _, n := range tables {
		if t, ok := s.db.store.Table(n); ok {
			tabs = append(tabs, t)
		}
	}
	s.unit = s.begin(tabs...)
	return nil
}

// Commit publishes the open unit at one fresh epoch and releases its
// latches.
func (s *Session) Commit() error {
	if s.unit == nil {
		return fmt.Errorf("minisql: Commit without an open write unit")
	}
	s.unit.Commit()
	s.unit = nil
	return nil
}

// Abort reverts the open unit, if any, and releases its latches: no
// epoch, stamp or row of it remains.
func (s *Session) Abort() {
	if s.unit != nil {
		s.unit.Abort()
		s.unit = nil
	}
}

// begin opens a storage unit, counting the time spent blocked on
// latches.
func (s *Session) begin(tabs ...*storage.Table) *storage.Commit {
	c := s.db.store.Begin(tabs...)
	s.stats.LockWaitNanos += c.LockWait().Nanoseconds()
	return c
}

// writeUnit returns the unit a statement writing t stages into: the
// open unit, which must hold t, or else a unit of the statement's own
// (own == true).
func (s *Session) writeUnit(t *storage.Table) (c *storage.Commit, own bool, err error) {
	if s.unit == nil {
		return s.begin(t), true, nil
	}
	if !s.unit.Holds(t) {
		return nil, false, fmt.Errorf("sql: the open write unit does not hold table %s", t.Schema.Name)
	}
	return s.unit, false, nil
}

// endWrite ends a statement's write: an error aborts the unit the
// statement staged into, the session's open one included; success
// commits a unit of the statement's own and leaves an open one open.
func (s *Session) endWrite(c *storage.Commit, own bool, err error) error {
	if err != nil {
		c.Abort()
		if !own {
			s.unit = nil
		}
		return err
	}
	if own {
		c.Commit()
	}
	return nil
}

// Exec parses and executes a single statement with optional positional
// parameters bound to '?' placeholders. Parsing goes through the DB's
// statement table, so repeated statements skip the parser entirely.
func (s *Session) Exec(sql string, params ...Value) (*Result, error) {
	stmt, err := s.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.ExecStmt(stmt, params...)
}

// Parse returns the AST for sql, consulting the DB's statement table.
// A hit performs no lexing or parsing; a miss parses and populates the
// table for cacheable (non-DDL) statements. Hit/miss counts land in the
// session's contention stats, which the wire layer drains into netsim
// metrics.
func (s *Session) Parse(sql string) (ast.Statement, error) {
	if stmt, ok := s.db.plans.get(sql); ok {
		s.stats.PlanHits++
		return stmt, nil
	}
	stmt, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	s.stats.PlanMisses++
	if cacheablePlan(stmt) {
		stmt = s.db.plans.put(sql, stmt)
	}
	return stmt, nil
}

// Prepare parses sql and pins it in the statement table under a handle
// that means the same statement to every session of the DB; the same
// text always gets the same handle. Past the prepared statements' byte
// budget it refuses with ErrStatementTableFull.
func (s *Session) Prepare(sql string) (uint32, error) {
	stmt, err := s.Parse(sql)
	if err != nil {
		return 0, err
	}
	return s.db.plans.prepare(sql, stmt)
}

// Prepared returns the statement a handle was prepared for, counted as
// a plan hit.
func (s *Session) Prepared(h uint32) (ast.Statement, error) {
	stmt, ok := s.db.plans.byHandle(h)
	if !ok {
		return nil, fmt.Errorf("no prepared statement with handle %d", h)
	}
	s.stats.PlanHits++
	return stmt, nil
}

// ExecScript executes a semicolon-separated script, returning the result
// of the last statement.
func (s *Session) ExecScript(sql string) (*Result, error) {
	stmts, err := parser.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, st := range stmts {
		last, err = s.ExecStmt(st)
		if err != nil {
			return nil, err
		}
	}
	if last == nil {
		last = &Result{}
	}
	return last, nil
}

// Query is Exec restricted to statements that return rows.
func (s *Session) Query(sql string, params ...Value) (*Result, error) {
	res, err := s.Exec(sql, params...)
	if err != nil {
		return nil, err
	}
	if res.Cols == nil {
		return nil, fmt.Errorf("sql: statement returns no rows")
	}
	return res, nil
}

// ExecStmt executes an already-parsed statement. Reads run against a
// snapshot captured here, which is the result's Epoch; writes stage
// into a write unit and publish atomically, and their result's Epoch is
// the database's epoch when they started.
func (s *Session) ExecStmt(stmt ast.Statement, params ...Value) (*Result, error) {
	if st, ok := stmt.(*ast.Select); ok {
		epoch := s.snapshotEpoch()
		rel, err := s.newContext(params, epoch).EvalSelect(st, nil)
		if err != nil {
			return nil, err
		}
		return &Result{Cols: rel.ColNames(), Rows: rel.Rows, Epoch: epoch}, nil
	}
	epoch := s.db.Epoch()
	res, err := s.execStmt(stmt, params)
	if res != nil {
		res.Epoch = epoch
	}
	return res, err
}

// execStmt executes a statement other than a SELECT.
func (s *Session) execStmt(stmt ast.Statement, params []Value) (*Result, error) {
	switch st := stmt.(type) {
	case *ast.Explain:
		return s.explain(st.Stmt, params)

	case *ast.Insert:
		return s.execInsert(st, params)

	case *ast.Update:
		return s.execUpdate(st, params)

	case *ast.Delete:
		return s.execDelete(st, params)

	case *ast.CreateTable:
		return s.execCreateTable(st)

	case *ast.CreateIndex:
		t, ok := s.db.store.Table(st.Table)
		if !ok {
			return nil, fmt.Errorf("sql: no such table %s", st.Table)
		}
		c, own, err := s.writeUnit(t)
		if err != nil {
			return nil, err
		}
		if st.IfNotExists && t.HasIndex(st.Name) {
			return &Result{}, s.endWrite(c, own, nil)
		}
		if err := s.endWrite(c, own, t.CreateIndex(st.Name, st.Column, st.Unique)); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case *ast.DropTable:
		if err := s.db.store.DropTable(st.Name, st.IfExists); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case *ast.Call:
		_, procs := s.db.registry()
		proc, ok := procs[strings.ToLower(st.Proc)]
		if !ok {
			return nil, fmt.Errorf("sql: no such procedure %s", st.Proc)
		}
		ctx := s.newContext(params, 0)
		args := make([]Value, len(st.Args))
		for i, a := range st.Args {
			v, err := ctx.EvalExpr(a, nil)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		return proc(s, args)
	}
	return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
}

// newContext readies the session's evaluation context for a statement
// reading at the given snapshot epoch (0 = latest committed state, the
// write statements' view); the tables of the session's open unit read
// with its staged rows. The statement before it is done with the
// context: nothing it returned is the context's.
func (s *Session) newContext(params []Value, epoch uint64) *exec.Context {
	funcs, _ := s.db.registry()
	s.params = append(s.params[:0], params...)
	s.ctx.Reset()
	s.ctx.DB, s.ctx.Epoch, s.ctx.Unit, s.ctx.Params, s.ctx.Funcs = s.db.store, epoch, s.unit, s.params, funcs
	return &s.ctx
}

func (s *Session) execCreateTable(st *ast.CreateTable) (*Result, error) {
	schema := &storage.Schema{Name: st.Name}
	ctx := s.newContext(nil, 0)
	for _, c := range st.Cols {
		col := storage.Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull, PrimaryKey: c.PrimaryKey}
		if c.Default != nil {
			v, err := ctx.EvalExpr(c.Default, nil)
			if err != nil {
				return nil, err
			}
			cv, err := types.Coerce(v, c.Type)
			if err != nil {
				return nil, err
			}
			col.HasDefault = true
			col.Default = cv
		}
		schema.Cols = append(schema.Cols, col)
	}
	if err := s.db.store.CreateTable(schema, st.IfNotExists); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

func (s *Session) execInsert(st *ast.Insert, params []Value) (*Result, error) {
	table, ok := s.db.store.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("sql: no such table %s", st.Table)
	}
	schema := table.Schema

	// Map the provided column list (or the full schema) to positions.
	positions := make([]int, 0, len(schema.Cols))
	if len(st.Cols) == 0 {
		for i := range schema.Cols {
			positions = append(positions, i)
		}
	} else {
		for _, name := range st.Cols {
			p := schema.ColIndex(name)
			if p < 0 {
				return nil, fmt.Errorf("sql: table %s has no column %s", st.Table, name)
			}
			positions = append(positions, p)
		}
	}

	// Every row starts as the template — the defaults, or NULLs, of the
	// columns the statement does not name — in one scratch row that
	// InsertC copies into the unit's slab.
	tmpl := make(storage.Row, len(schema.Cols))
	for i, col := range schema.Cols {
		tmpl[i] = types.Null
		if col.HasDefault {
			tmpl[i] = col.Default
		}
	}
	row := make(storage.Row, len(schema.Cols))

	c, own, err := s.writeUnit(table)
	if err != nil {
		return nil, err
	}
	ctx := s.newContext(params, 0)
	n := 0
	insert := func(values []Value) error {
		if len(values) != len(positions) {
			return fmt.Errorf("sql: INSERT expects %d values, got %d", len(positions), len(values))
		}
		copy(row, tmpl)
		for i, p := range positions {
			row[p] = values[i]
		}
		if _, err := table.InsertC(c, row); err != nil {
			return err
		}
		n++
		return nil
	}
	stage := func() error {
		if st.Select != nil {
			rel, err := ctx.EvalSelect(st.Select, nil)
			if err != nil {
				return err
			}
			c.ReserveInserts(table, len(rel.Rows))
			for _, r := range rel.Rows {
				if err := insert(r); err != nil {
					return err
				}
			}
			return nil
		}
		c.ReserveInserts(table, len(st.Rows))
		var values []Value
		for _, exprRow := range st.Rows {
			values = values[:0]
			for _, e := range exprRow {
				v, err := ctx.EvalExpr(e, nil)
				if err != nil {
					return err
				}
				values = append(values, v)
			}
			if err := insert(values); err != nil {
				return err
			}
		}
		return nil
	}
	if err := s.endWrite(c, own, stage()); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n}, nil
}

func (s *Session) execUpdate(st *ast.Update, params []Value) (*Result, error) {
	table, ok := s.db.store.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("sql: no such table %s", st.Table)
	}
	setPos := make([]int, len(st.Set))
	for i, a := range st.Set {
		if setPos[i] = table.Schema.ColIndex(a.Column); setPos[i] < 0 {
			return nil, fmt.Errorf("sql: table %s has no column %s", st.Table, a.Column)
		}
	}
	cols := exec.TableCols(table, st.Table)
	newRow := make(storage.Row, len(cols)) // UpdateC copies it into the unit's slab
	return s.execWrite(table, st.Where, params, true, func(ctx *exec.Context, c *storage.Commit, id int, old storage.Row) error {
		copy(newRow, old)
		env := exec.NewEnv(cols, old, nil)
		for i, a := range st.Set {
			v, err := ctx.EvalExpr(a.Value, env)
			if err != nil {
				return err
			}
			newRow[setPos[i]] = v
		}
		return table.UpdateC(c, id, newRow)
	})
}

func (s *Session) execDelete(st *ast.Delete, params []Value) (*Result, error) {
	table, ok := s.db.store.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("sql: no such table %s", st.Table)
	}
	return s.execWrite(table, st.Where, params, false, func(_ *exec.Context, c *storage.Commit, id int, _ storage.Row) error {
		return table.DeleteC(c, id)
	})
}

// execWrite is the skeleton UPDATE and DELETE share. In a write unit
// holding the table it is two-phase: first gather the ids of the rows
// WHERE accepts — through the executor's access path, so a keyed write
// reads only the rows its key selects — and only then mutate them, so
// the read is never disturbed by the statement's own staged versions.
// rows says every mutation stages a new row (UPDATE), which the unit
// then reserves for the matched ids.
func (s *Session) execWrite(table *storage.Table, where ast.Expr, params []Value, rows bool,
	mutate func(ctx *exec.Context, c *storage.Commit, id int, old storage.Row) error) (*Result, error) {
	c, own, err := s.writeUnit(table)
	if err != nil {
		return nil, err
	}
	ctx := s.newContext(params, 0)
	ids, err := ctx.MatchIDs(table, where)
	if err == nil && rows {
		c.ReserveUpdates(table, len(ids))
	}
	for i := 0; err == nil && i < len(ids); i++ {
		old, _ := table.GetAt(storage.Current, ids[i])
		err = mutate(ctx, c, ids[i], old)
	}
	if err := s.endWrite(c, own, err); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: len(ids)}, nil
}
