package minisql

import (
	"container/list"
	"errors"
	"sync"

	"pdmtune/internal/minisql/ast"
)

// stmtTableBytes bounds each half of the statement table: the SQL text
// of its prepared statements, and that of the unprepared ones it caches.
// PDM clients ship every repeated statement in its parameterized form,
// so the hot set is one entry per statement shape (a few dozen texts,
// under 30 KiB for the paper's workloads); what does not repeat — a bulk
// load's multi-row INSERTs, a check-out's id-list UPDATE — must not
// accumulate. An entry cap cannot tell the two apart: a cached one-shot
// INSERT pins its text and an AST several times that size.
const stmtTableBytes = 256 << 10

// ErrStatementTableFull is the refusal of a prepare that would take the
// prepared statements past their budget. Its text is what the wire
// protocol ships in the error frame and clients match, so it keeps the
// "wire:" prefix it crossed the wire with.
var ErrStatementTableFull = errors.New("wire: statement table full")

// stmtTable is a database's one registry of parsed statements, keyed by
// SQL text. The executor treats ASTs as read-only, so one entry's
// statement may run on any number of sessions concurrently, and an
// entry's statement never changes once published. A prepared entry has
// a handle, meaning the same statement on every connection, and stays
// for the database's life; the others form an LRU that evicts beyond
// the byte budget. DDL leaves the entries in place: a SELECT core's plan
// is checked against the schemas it reads on every execution and
// re-planned when they changed.
type stmtTable struct {
	mu            sync.Mutex
	m             map[string]*stmtEntry
	lru           list.List    // unprepared entries, front = most recently used
	lruBytes      int          // sum of len(sql) over the LRU
	prepared      []*stmtEntry // prepared[h-1] has handle h
	preparedBytes int          // sum of len(sql) over prepared
}

type stmtEntry struct {
	sql    string
	stmt   ast.Statement
	handle uint32        // 0 until prepared
	el     *list.Element // the entry's place in the LRU; nil once prepared
}

func (t *stmtTable) get(sql string) (ast.Statement, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[sql]
	if !ok {
		return nil, false
	}
	if e.el != nil {
		t.lru.MoveToFront(e.el)
	}
	return e.stmt, true
}

// put caches a parsed statement, evicting least recently used entries
// beyond the byte budget, and returns the table's statement for its
// text: the one published first when another session's parse of the
// same text got there before. A statement larger than the whole budget
// is not admitted: it would evict the entire hot set to pin one text.
func (t *stmtTable) put(sql string, stmt ast.Statement) ast.Statement {
	if len(sql) > stmtTableBytes {
		return stmt
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.m[sql]; ok {
		if e.el != nil {
			t.lru.MoveToFront(e.el)
		}
		return e.stmt
	}
	e := &stmtEntry{sql: sql, stmt: stmt}
	e.el = t.lru.PushFront(e)
	t.m[sql] = e
	t.lruBytes += len(sql)
	for t.lruBytes > stmtTableBytes {
		oldest := t.lru.Remove(t.lru.Back()).(*stmtEntry)
		delete(t.m, oldest.sql)
		t.lruBytes -= len(oldest.sql)
	}
	return stmt
}

// prepare pins sql's entry under a handle, assigning the next one on
// first sight; stmt is its parse, for a text the table does not hold.
func (t *stmtTable) prepare(sql string, stmt ast.Statement) (uint32, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.m[sql]
	if e != nil && e.handle != 0 {
		return e.handle, nil
	}
	if t.preparedBytes+len(sql) > stmtTableBytes {
		return 0, ErrStatementTableFull
	}
	if e == nil {
		e = &stmtEntry{sql: sql, stmt: stmt}
		t.m[sql] = e
	} else {
		t.lru.Remove(e.el)
		e.el = nil
		t.lruBytes -= len(sql)
	}
	t.prepared = append(t.prepared, e)
	t.preparedBytes += len(sql)
	e.handle = uint32(len(t.prepared))
	return e.handle, nil
}

// byHandle returns the statement a handle was prepared for.
func (t *stmtTable) byHandle(h uint32) (ast.Statement, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h == 0 || uint64(h) > uint64(len(t.prepared)) {
		return nil, false
	}
	return t.prepared[h-1].stmt, true
}

// pinned reports the bytes of SQL text the LRU half currently holds.
func (t *stmtTable) pinned() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lruBytes
}

// cacheablePlan keeps DDL out of the LRU: a schema statement runs once,
// so its text would only pin budget the hot set needs.
func cacheablePlan(st ast.Statement) bool {
	switch st.(type) {
	case *ast.CreateTable, *ast.CreateIndex, *ast.DropTable:
		return false
	}
	return true
}

// ReadOnly reports whether a parsed statement only reads, so that a
// replica (or a deposed primary) may serve it: a SELECT, WITH included,
// or an EXPLAIN, which plans without executing. DML, DDL and CALL are
// writes.
func ReadOnly(stmt ast.Statement) bool {
	switch stmt.(type) {
	case *ast.Select, *ast.Explain:
		return true
	}
	return false
}
