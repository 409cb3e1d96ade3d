package minisql

import (
	"container/list"
	"sync"

	"pdmtune/internal/minisql/ast"
)

// planCacheBytes bounds the SQL text the shared plan cache pins. PDM
// clients ship every repeated statement in its parameterized form, so
// the hot set is one entry per statement shape (a few dozen texts,
// under 30 KiB for the paper's workloads); what does not repeat — a
// bulk load's multi-row INSERTs, a check-out's id-list UPDATE — must
// not accumulate. An entry cap cannot tell the two apart: a cached
// one-shot INSERT pins its text and an AST several times that size.
const planCacheBytes = 256 << 10

// planCache is a concurrency-safe LRU of parsed statements keyed by SQL
// text and bounded by the bytes of text it holds. The executor treats
// ASTs as read-only, so one cached statement may run on any number of
// sessions concurrently. DDL leaves the entries in place: a SELECT
// core's plan is checked against the schemas it reads on every
// execution and re-planned when they changed.
type planCache struct {
	mu     sync.Mutex
	budget int
	bytes  int // sum of len(sql) over the entries
	m      map[string]*list.Element
	lru    *list.List // front = most recently used
}

type planEntry struct {
	sql  string
	stmt ast.Statement
}

func newPlanCache(budget int) *planCache {
	return &planCache{
		budget: budget,
		m:      map[string]*list.Element{},
		lru:    list.New(),
	}
}

func (c *planCache) get(sql string) (ast.Statement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[sql]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*planEntry).stmt, true
}

// put caches a parsed statement, evicting least recently used entries
// beyond the byte budget. A statement larger than the whole budget is
// not admitted: it would evict the entire hot set to pin one text.
func (c *planCache) put(sql string, stmt ast.Statement) {
	if len(sql) > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[sql]; ok {
		el.Value.(*planEntry).stmt = stmt
		c.lru.MoveToFront(el)
		return
	}
	c.m[sql] = c.lru.PushFront(&planEntry{sql: sql, stmt: stmt})
	c.bytes += len(sql)
	for c.bytes > c.budget {
		oldest := c.lru.Remove(c.lru.Back()).(*planEntry)
		delete(c.m, oldest.sql)
		c.bytes -= len(oldest.sql)
	}
}

// pinned reports the bytes of SQL text the cache currently holds.
func (c *planCache) pinned() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// cacheablePlan excludes DDL from the cache: a schema statement runs
// once, so its text would only pin budget the hot set needs.
func cacheablePlan(st ast.Statement) bool {
	switch st.(type) {
	case *ast.CreateTable, *ast.CreateIndex, *ast.DropTable:
		return false
	}
	return true
}
