// Package exec evaluates parsed SQL statements against storage. One
// function decides how a stored table is read for a set of conjuncts — a
// key set (literals, or the result of an uncorrelated IN subquery) looked
// up in a hash index, or a snapshot scan — for SELECT, UPDATE, DELETE and
// (deciding without reading) EXPLAIN. A SELECT core's FROM clause runs as
// one nested loop over its table factors, which write their candidates in
// turn into one scratch row: the first factor streams from its access
// path, each further one draws the candidates for its join key from an
// index, from a hash of its materialized rows, or takes all of them. Rows
// are told apart by value (keyTable), never by key bytes. Around them:
// set operations, grouping and aggregation, ordering, correlated
// subqueries with automatic caching of uncorrelated ones, and SQL:1999
// recursive common table expressions (semi-naive evaluation) — everything
// the paper's PDM queries require. Searches over the syntax tree are
// visitors over ast.Inspect; EvalExpr is the package's only switch over
// the expression node kinds.
package exec

import (
	"fmt"
	"strings"

	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
)

// ColMeta names one column of an intermediate relation. Table is the
// binding alias (lower-cased); Name preserves the source spelling.
type ColMeta struct {
	Table string
	Name  string
}

// TableCols names a stored table's columns under a binding alias.
func TableCols(t *storage.Table, alias string) []ColMeta {
	alias = strings.ToLower(alias)
	cols := make([]ColMeta, len(t.Schema.Cols))
	for i := range cols {
		cols[i] = ColMeta{Table: alias, Name: t.Schema.Cols[i].Name}
	}
	return cols
}

// rebind returns the columns under another binding alias (a CTE or a
// derived table referenced in a FROM clause).
func rebind(cols []ColMeta, alias string) []ColMeta {
	alias = strings.ToLower(alias)
	out := make([]ColMeta, len(cols))
	for i, c := range cols {
		out[i] = ColMeta{Table: alias, Name: c.Name}
	}
	return out
}

// findCol resolves a possibly table-qualified column among cols: its
// position, -1 when absent, an error when ambiguous. Every name
// resolution in the executor goes through it.
func findCol(cols []ColMeta, table, name string) (int, error) {
	found := -1
	for i, c := range cols {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("sql: ambiguous column reference %s", refString(table, name))
		}
		found = i
	}
	return found, nil
}

// Relation is a materialized intermediate result.
type Relation struct {
	Cols  []ColMeta
	Rows  []storage.Row
	names []string // of Cols, the plan's, in the result of a SELECT
}

// ColNames returns the output column names of a SELECT's result
// (EvalSelect).
func (r *Relation) ColNames() []string { return r.names }

type errNoColumn struct{ table, name string }

func (e errNoColumn) Error() string {
	return "sql: no such column " + refString(e.table, e.name)
}

func refString(table, name string) string {
	if table != "" {
		return table + "." + name
	}
	return name
}

// Env is a name-resolution scope: one relation row plus a parent scope
// for correlated subqueries. touched, when non-nil, is set whenever a
// lookup passes through this scope upward — the mechanism behind the
// uncorrelated-subquery result cache ("an intelligent query optimizer
// will recognize that the inner clause needs to be evaluated only once").
type Env struct {
	cols    []ColMeta
	row     storage.Row
	parent  *Env
	touched *bool // barrier marker; scope itself holds no columns then
	// slots, in the scope of a SELECT core, is where the core's own
	// column references point (see bindColumnRefs); nil elsewhere.
	slots *slotTable
}

// slotTable maps the slots of a core's direct column references
// (ast.ColumnRef.Slot) to what they read: unbound (0, resolve by name),
// outerSlot (a column of an enclosing scope), or the position in the
// core's row plus one.
type slotTable [maxSlots]uint8

const (
	// maxSlots bounds the references a core binds; later ones, and
	// positions past outerSlot-2, resolve by name.
	maxSlots  = 64
	outerSlot = 0xff
)

// coreScope is the one scope a SELECT core evaluates its clauses in,
// allocated with its slot table so that binding costs no allocation.
type coreScope struct {
	Env
	table slotTable
}

// NewEnv builds a scope over the given columns and row.
func NewEnv(cols []ColMeta, row storage.Row, parent *Env) *Env {
	return &Env{cols: cols, row: row, parent: parent}
}

// Bound is an expression bound once to the positions of a fixed column
// list, to be evaluated against many rows of that layout (EvalBound) —
// the scope of a SELECT core, without the core. It is not safe for
// concurrent use.
type Bound struct {
	expr  ast.Expr
	scope coreScope
}

// Bind numbers the direct column references of e (those outside its
// subqueries, which bind in their own scope when they run) and binds
// each to its position in cols. Bind writes the references' slots, so e
// must not be shared with another binding. A reference that does not
// name exactly one column of cols stays unbound: evaluation resolves it
// by name and reports its error only when it reaches it.
func Bind(e ast.Expr, cols []ColMeta) *Bound {
	b := &Bound{expr: e}
	b.scope.Env = Env{cols: cols, slots: &b.scope.table}
	slot := 0
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Select:
			return false
		case *ast.ColumnRef:
			slot++
			n.Slot = slot
			if slot <= maxSlots {
				if at, err := resolve(n, cols, nil); err == nil {
					b.scope.table[slot-1] = at
				}
			}
		}
		return true
	})
	return b
}

// EvalBound evaluates a bound expression against one row of its
// columns. The binding itself costs no allocation per row.
func (ctx *Context) EvalBound(b *Bound, row storage.Row) (types.Value, error) {
	b.scope.row = row
	v, err := ctx.EvalExpr(b.expr, &b.scope.Env)
	b.scope.row = nil
	return v, err
}

// column reads a column reference in this scope: through the slot table
// when this is the scope of the reference's own core, else by name.
func (e *Env) column(ref *ast.ColumnRef) (types.Value, error) {
	if e != nil && e.slots != nil && ref.Slot > 0 && ref.Slot <= maxSlots {
		switch at := e.slots[ref.Slot-1]; at {
		case 0:
		case outerSlot:
			return e.parent.lookup(ref.Table, ref.Column)
		default:
			return e.row[at-1], nil
		}
	}
	return e.lookup(ref.Table, ref.Column)
}

// lookup resolves a column reference through the scope chain.
func (e *Env) lookup(table, name string) (types.Value, error) {
	for env := e; env != nil; env = env.parent {
		if env.touched != nil {
			*env.touched = true
			continue
		}
		pos, err := findCol(env.cols, table, name)
		if err != nil {
			return types.Null, err
		}
		if pos >= 0 {
			return env.row[pos], nil
		}
	}
	return types.Null, errNoColumn{table: table, name: name}
}

// Context carries everything an evaluation needs: the database, statement
// parameters, registered scalar functions, CTE bindings and the
// uncorrelated-subquery cache.
type Context struct {
	DB     *storage.DB
	Params []types.Value
	Funcs  map[string]ScalarFunc

	// Epoch is the snapshot this evaluation reads at: base-table access
	// resolves rows as of this VersionLog epoch, so a whole statement
	// sees one consistent state no matter what commits concurrently.
	// 0 means "latest committed state" — the view write statements
	// (which run under their table's write latch) and ad-hoc contexts
	// use. The engine sets a captured epoch for SELECTs.
	Epoch uint64

	// Unit, when set, is the open write unit the evaluation runs in: the
	// tables it holds are read with its staged rows (storage.Current),
	// every other table at Epoch.
	Unit *storage.Commit

	// CTEs maps lower-cased CTE names to their (current) materialization;
	// nil until a WITH clause binds one.
	CTEs map[string]*Relation

	// SubqueryCache memoizes results of subqueries that did not read any
	// outer column; nil until the first is cached.
	SubqueryCache map[*ast.Select]*Relation

	// inSetCache memoizes hash sets for cached IN-subqueries: the key set
	// of an access path and the O(1) probe of `x IN (SELECT ...)` per row.
	inSetCache map[*ast.Select]*inSet

	// MaxRecursion bounds the number of semi-naive iterations of a
	// recursive CTE; 0 means the default (100000).
	MaxRecursion int

	// Plan, when non-nil, makes the evaluation an EXPLAIN: every operator
	// takes its decisions exactly as it would and records them under this
	// node, and stored tables yield no rows — so the plan printed is the
	// plan that runs, by construction. A recursive CTE's recursive
	// branches are planned once; a subquery whose result is a key set is
	// planned under the access line it keys (one that only fails on data
	// shows as a key set here and runs as a filter); subqueries that only
	// a row would reach appear in their FILTER line, unplanned.
	Plan *PlanNode

	// aggValues holds precomputed aggregate results for the group whose
	// projection/HAVING is currently being evaluated; keyed by AST node.
	aggValues map[*ast.Aggregate]types.Value

	// args is the stack scalar function arguments are evaluated onto.
	args []types.Value

	// slab is where the statement's projected rows are cut from.
	slab slab
}

// PlanNode is one line of an EXPLAIN plan and the lines nested under it.
type PlanNode struct {
	Text string
	Kids []*PlanNode
}

// note adds a line under the current plan node. Call sites guard with
// ctx.Plan != nil, which keeps the formatting off the execution path.
func (ctx *Context) note(format string, args ...any) *PlanNode {
	n := &PlanNode{Text: fmt.Sprintf(format, args...)}
	ctx.Plan.Kids = append(ctx.Plan.Kids, n)
	return n
}

// under makes n the current plan node until the returned func runs.
func (ctx *Context) under(n *PlanNode) func() {
	saved := ctx.Plan
	ctx.Plan = n
	return func() { ctx.Plan = saved }
}

// ScalarFunc is a registered scalar function (a "stored function" in the
// paper's SQL/PSM sense, implemented in Go at the server). The argument
// slice is valid only for the call. It must be deterministic — the same
// arguments give the same result or error, whenever it is called — as a
// predicate over one indexed column runs once per index key, not per row.
type ScalarFunc func(args []types.Value) (types.Value, error)

// snap is the storage epoch a read of t resolves at: the chain heads
// when the context's unit holds t, else the context's Epoch (0 reads
// the latest committed state).
func (ctx *Context) snap(t *storage.Table) uint64 {
	if ctx.Unit.Holds(t) {
		return storage.Current
	}
	if ctx.Epoch == 0 {
		return storage.Latest
	}
	return ctx.Epoch
}
