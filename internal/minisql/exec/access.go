package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
)

// conjunct is one ANDed term of a WHERE or ON clause. used marks a term
// that an access path or a join has taken over; whoever evaluates the
// clause's remainder skips it.
type conjunct struct {
	expr ast.Expr
	used bool
}

func splitAnd(e ast.Expr, into []conjunct) []conjunct {
	if e == nil {
		return into
	}
	if b, ok := e.(*ast.Binary); ok && b.Op == "AND" {
		return splitAnd(b.Right, splitAnd(b.Left, into))
	}
	return append(into, conjunct{expr: e})
}

// allTrue is the one residual evaluation: whether every conjunct not yet
// taken over holds for the row in env. skip, when >= 0, is the position
// of a conjunct the caller has answered by other means.
func (ctx *Context) allTrue(conjs []conjunct, skip int, env *Env) (bool, error) {
	for i := range conjs {
		if conjs[i].used || i == skip {
			continue
		}
		t, err := ctx.EvalPredicate(conjs[i].expr, env)
		if err != nil || t != types.True {
			return false, err
		}
	}
	return true, nil
}

// ---------------------------------------------------------------------------
// the access path of a stored table

// access is the decision how one stored table is read for a set of
// conjuncts: through index for the key set it answers exactly, or by a
// snapshot scan; filters are the key conjuncts left to check per row.
// chooseAccess takes the decision, read runs it. An access is a frame's:
// its buffers serve the next execution, and vals holds its key sets'.
type access struct {
	table   *storage.Table
	index   *storage.Index // nil: snapshot scan
	keys    keySet         // looked up in index
	filters []keyFilter
	sub     []*PlanNode // under EXPLAIN: the plans of the subqueries key sets come from
	hits    []hit       // lookup's scratch, reused from read to read
	vals    []types.Value
}

// hit is a row an index lookup found, with its id.
type hit struct {
	id  int
	row storage.Row
}

// keySet is the values a key conjunct admits for its column, NULLs
// dropped. A handful of literal keys are compared one by one; more, or
// the result of a subquery, are hashed.
type keySet struct {
	vals []types.Value
	set  *inSet      // nil: compare with vals
	from *ast.Select // the subquery a computed set comes from
	pred ast.Expr    // the predicate a derived set comes from (keysWhere)
}

// linearKeys is the handful: up to here a comparison per key is cheaper
// than hashing the row's value.
const linearKeys = 8

// admits reports whether v equals one of the keys. Only `col = k` can
// leave a key here that v cannot be compared with, and one key is never
// hashed, so that comparison's error is raised.
func (k keySet) admits(v types.Value) (bool, error) {
	if k.set != nil {
		return k.set.has(v), nil
	}
	for _, key := range k.vals {
		if t, err := types.CompareOp("=", v, key); err != nil || t == types.True {
			return err == nil, err
		}
	}
	return false, nil
}

func (k keySet) String() string {
	switch {
	case k.from != nil:
		return "keys from (" + k.from.String() + ")"
	case k.pred != nil:
		return fmt.Sprintf("%d key(s) where %s", len(k.vals), k.pred)
	}
	return fmt.Sprintf("%d key(s)", len(k.vals))
}

// hash hashes a set of more than a handful of keys.
func (k *keySet) hash() {
	if len(k.vals) > linearKeys && k.set == nil {
		k.set = newInSet(len(k.vals))
		for _, v := range k.vals {
			k.set.add(v)
		}
	}
}

// keyFilter keeps the rows whose column at pos is among the keys. An index
// that answers the keys exactly may read them instead; n is then the ids
// its buckets list, once counted.
type keyFilter struct {
	pos int
	keySet
	index *storage.Index
	n     int
}

// keyConjunct matches the conjuncts that say which values a column may
// have before the table is read: `col = k` (either way round), returning
// key, `col IN (k1 … kn)`, returning list, and `col IN (SELECT …)`,
// returning sub. NOT IN is not a key: its truth depends on every item at
// once.
func keyConjunct(e ast.Expr) (col *ast.ColumnRef, key ast.Expr, list []ast.Expr, sub *ast.Select) {
	switch e := e.(type) {
	case *ast.Binary:
		if e.Op != "=" {
			break
		}
		if c, ok := e.Left.(*ast.ColumnRef); ok && isConstExpr(e.Right) {
			return c, e.Right, nil, nil
		}
		if c, ok := e.Right.(*ast.ColumnRef); ok && isConstExpr(e.Left) {
			return c, e.Left, nil, nil
		}
	case *ast.InList:
		if c, ok := e.Expr.(*ast.ColumnRef); ok && !e.Not && !slices.ContainsFunc(e.Items, func(it ast.Expr) bool { return !isConstExpr(it) }) {
			return c, nil, e.Items, nil
		}
	case *ast.InSubquery:
		if c, ok := e.Expr.(*ast.ColumnRef); ok && !e.Not {
			return c, nil, nil, e.Select
		}
	}
	return nil, nil, nil, nil
}

// isConstExpr reports whether an expression reads no column and runs no
// subquery or aggregate, so it can be evaluated once before the read.
func isConstExpr(e ast.Expr) bool {
	constant := true
	ast.Inspect(e, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ColumnRef, *ast.Select, *ast.Aggregate:
			constant = false
		}
		return constant
	})
	return constant
}

// chooseAccess decides how table, bound as alias, is read for conjs. It
// takes over every key conjunct on one of the table's columns
// (unqualified column names count only when the table is alone in its
// FROM clause), and every other conjunct that keysWhere can turn into a
// key set. Of the key sets an index answers exactly, the one whose
// buckets list the fewest ids becomes the lookup (the first on a tie);
// the others become per-row filters. Everything else stays with the
// caller as residual.
//
// "Exactly" is what keeps the choice of path out of a statement's
// outcome. NULL keys are dropped — `col = NULL` and a NULL item of an IN
// list can never make WHERE true. An IN item of a kind the column cannot
// be compared with is dropped too, as IN itself never matches it (a
// subquery's stay in its set, where no value of the column finds them).
// But `col = k` with such a k is an error on the first non-NULL row, so
// that k goes to no index; the filter raises the error if a row gets
// there. And a subquery is a key set only if keySubquery says so.
func (ctx *Context) chooseAccess(acc *access, alias string, unqualified bool, conjs []conjunct, outer *Env) error {
	table := acc.table
	colOf := func(col *ast.ColumnRef) int {
		if (col.Table == "" && !unqualified) || (col.Table != "" && !strings.EqualFold(col.Table, alias)) {
			return -1
		}
		return table.Schema.ColIndex(col.Column)
	}
	var buf [8]keyFilter // the key sets in conjunct order, on the stack: most statements have one
	sets, indexed := buf[:0], 0
	for i := range conjs {
		c := &conjs[i]
		if c.used {
			continue
		}
		col, key, list, sub := keyConjunct(c.expr)
		if col == nil {
			continue
		}
		f := keyFilter{pos: colOf(col)}
		if f.pos < 0 {
			continue
		}
		exact := true
		if sub != nil {
			set, plan, ok := ctx.keySubquery(sub)
			if !ok {
				continue
			}
			f.keySet = keySet{vals: set.vals, set: set, from: sub}
			acc.sub = append(acc.sub, plan...)
		} else {
			in, one := list != nil, [1]ast.Expr{key}
			if !in {
				list = one[:]
			}
			kind, from := table.Schema.Cols[f.pos].Type.Kind, len(acc.vals)
			for _, ke := range list {
				k, err := ctx.EvalExpr(ke, outer)
				if err != nil {
					return err
				}
				fits := types.Comparable(kind, k.Kind())
				if k.IsNull() || (in && !fits) {
					continue
				}
				exact = exact && fits
				acc.vals = append(acc.vals, k)
			}
			f.vals = acc.vals[from:len(acc.vals):len(acc.vals)] // capped: the next set appends past it
			f.hash()
		}
		c.used = true
		if index := table.IndexOn(col.Column); exact && index != nil {
			f.index = index
			indexed++
		}
		sets = append(sets, f)
	}
	// Counting candidates costs a bucket probe per key: only a choice
	// pays it. Keys are derived only at a pinned epoch (keysWhere), which
	// Latest is not.
	derive := ctx.snap(table) != storage.Latest && slices.ContainsFunc(conjs, func(c conjunct) bool {
		_, index := indexedColumn(c, table, colOf)
		return index != nil
	})
	cheapest := table.NumRows()
	for i := range sets {
		if f := &sets[i]; f.index != nil && (derive || indexed > 1) {
			f.n = f.index.Count(f.vals)
			cheapest = min(cheapest, f.n)
		}
	}
	for i := 0; derive && i < len(conjs); i++ {
		if f, ok := ctx.keysWhere(&conjs[i], acc, alias, colOf, cheapest); ok {
			sets = append(sets, f)
			cheapest = f.n
		}
	}
	best := -1
	for i, f := range sets {
		if f.index != nil && (best < 0 || f.n < sets[best].n) {
			best = i
		}
	}
	if best >= 0 {
		acc.index, acc.keys = sets[best].index, sets[best].keySet
		sets = slices.Delete(sets, best, best+1)
	}
	acc.filters = append(acc.filters, sets...)
	return nil
}

// indexedColumn returns the one column of table that c reads, by colOf,
// and the column's index (nil if none): c must not be taken over, and
// read no other column, subquery or aggregate.
func indexedColumn(c conjunct, table *storage.Table, colOf func(*ast.ColumnRef) int) (int, *storage.Index) {
	pos, ok := -1, !c.used
	ast.Inspect(c.expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Select, *ast.Aggregate:
			ok = false
		case *ast.ColumnRef:
			p := colOf(n)
			ok = p >= 0 && (pos < 0 || p == pos)
			pos = p
		}
		return ok
	})
	if !ok || pos < 0 {
		return -1, nil
	}
	return pos, table.IndexOn(table.Schema.Cols[pos].Name)
}

// keysWhere takes over a conjunct that reads only an indexed column as
// the key set of the index's keys for which it holds: it runs once per
// key instead of once per row. Stored functions are deterministic by
// contract, and a row visible at a pinned epoch carries one of the keys
// (storage.Index.Keys). It declines unless the set lists fewer ids than
// limit, the cheapest path so far, and declines a conjunct that fails on
// a key or holds for NULL, which no key set admits. The key 0.0 also
// lists the rows holding -0.0 (types.Value.Key), so a conjunct
// that tells the two apart, such as CAST(x AS TEXT) = '-0', is declined.
func (ctx *Context) keysWhere(c *conjunct, acc *access, alias string, colOf func(*ast.ColumnRef) int, limit int) (f keyFilter, ok bool) {
	table, from := acc.table, len(acc.vals)
	f.pos, f.index = indexedColumn(*c, table, colOf)
	if f.index == nil {
		return f, false
	}
	keys, ok := f.index.Keys(limit - 1)
	if !ok {
		return f, false
	}
	f.pred = c.expr
	env := NewEnv(TableCols(table, alias), make(storage.Row, len(table.Schema.Cols)), nil)
	for _, k := range append(keys, storage.Key{}) { // NULL last
		env.row[f.pos] = k.Value
		t, err := ctx.EvalPredicate(c.expr, env)
		if err != nil || (t == types.True && k.Value.IsNull()) {
			return f, false
		}
		if k.Value.Kind() == types.KindFloat && k.Value.Float() == 0 {
			env.row[f.pos] = types.NewFloat(math.Copysign(0, -1))
			if neg, err := ctx.EvalPredicate(c.expr, env); err != nil || neg != t {
				return f, false
			}
		}
		if t == types.True {
			acc.vals = append(acc.vals, k.Value)
			f.n += k.N
		}
	}
	f.vals = acc.vals[from:len(acc.vals):len(acc.vals)]
	f.hash()
	c.used = f.n < limit
	return f, c.used
}

// keySubquery evaluates an IN subquery before the table is read and
// outside every scope, so that its set can be a key set. ok says it is
// one: the subquery could be evaluated, which one that reads a column
// from outside itself — whose result differs from row to row — cannot
// here. Whatever fails is left to fail when, and only if, a row reaches
// it. Under EXPLAIN nothing is read and the subquery's plan is returned
// for the access line to carry.
func (ctx *Context) keySubquery(sel *ast.Select) (set *inSet, plan []*PlanNode, ok bool) {
	node := &PlanNode{}
	if ctx.Plan != nil {
		defer ctx.under(node)()
	}
	set, err := ctx.subquerySet(sel, nil)
	return set, node.Kids, err == nil && ctx.inSetCache[sel] == set // cached: it touched no scope
}

// String is the access path's line in an EXPLAIN plan.
func (a *access) String() string {
	name := a.table.Schema.Name
	s := fmt.Sprintf("SCAN %s (%d rows)", name, a.table.NumRows())
	if a.index != nil {
		s = fmt.Sprintf("INDEX %s ON %s (%s): %s", a.index.Name, name, a.index.Column, a.keys)
	}
	for _, f := range a.filters {
		s += fmt.Sprintf(", %s among %s", a.table.Schema.Cols[f.pos].Name, f.keySet)
	}
	return s
}

// lookup returns the rows whose indexed column equals one of several
// keys, by ascending id. Ascending row id is scan order, so an index
// returns exactly what the scan would, in the same order.
func (a *access) lookup(snap uint64) []hit {
	hits := a.hits[:0]
	for _, k := range a.keys.vals {
		a.index.LookupAt(snap, k, func(id int, row storage.Row) bool {
			hits = append(hits, hit{id, row})
			return true
		})
	}
	slices.SortFunc(hits, func(x, y hit) int { return cmp.Compare(x.id, y.id) })
	a.hits = slices.CompactFunc(hits, func(x, y hit) bool { return x.id == y.id }) // a key written twice
	return a.hits
}

// read runs the decision: fn sees every row the access path selects, in
// ascending row-id order, until it returns an error. Each row is
// resolved once, and one key streams straight from its index bucket.
// Under EXPLAIN the decision has been recorded and nothing is read.
func (ctx *Context) read(a *access, fn func(id int, row storage.Row) error) error {
	if ctx.Plan != nil {
		return nil
	}
	var err error
	visit := func(id int, row storage.Row) bool {
		for _, f := range a.filters {
			if ok, ferr := f.admits(row[f.pos]); !ok {
				err = ferr
				return ferr == nil
			}
		}
		err = fn(id, row)
		return err == nil
	}
	snap := ctx.snap(a.table)
	switch {
	case a.index == nil:
		a.table.ScanAt(snap, visit)
	case len(a.keys.vals) == 1:
		a.index.LookupAt(snap, a.keys.vals[0], visit)
	default:
		for _, h := range a.lookup(snap) {
			if !visit(h.id, h.row) {
				break
			}
		}
	}
	return err
}

// MatchIDs gathers the ids of the rows of table that WHERE accepts — the
// read half of UPDATE and DELETE, through the same access path a SELECT
// of the table would take. It finishes before it returns, so the caller
// mutates rows only after the last one has been read.
func (ctx *Context) MatchIDs(table *storage.Table, where ast.Expr) ([]int, error) {
	f := ctx.takeFrame()
	defer ctx.putFrame(f)
	f.conjs = splitAnd(where, f.conjs)
	conjs, acc := f.conjs, f.access(table)
	if err := ctx.chooseAccess(acc, table.Schema.Name, true, conjs, nil); err != nil {
		return nil, err
	}
	if ctx.Plan != nil {
		ctx.note("%s", acc).Kids = acc.sub
	}
	ctx.noteFilter(conjs)
	env := &Env{cols: TableCols(table, table.Schema.Name)}
	var ids []int
	err := ctx.read(acc, func(id int, row storage.Row) error {
		env.row = row
		ok, err := ctx.allTrue(conjs, -1, env)
		if ok {
			ids = append(ids, id)
		}
		return err
	})
	return ids, err
}

// noteFilter records, under EXPLAIN, the conjuncts left for a per-row
// filter after the access paths and joins have taken theirs.
func (ctx *Context) noteFilter(conjs []conjunct) {
	if ctx.Plan == nil {
		return
	}
	if rest := conjString(conjs); rest != "" {
		ctx.note("FILTER %s", rest)
	}
}

// conjString renders the conjuncts not yet taken over.
func conjString(conjs []conjunct) string {
	var terms []string
	for _, c := range conjs {
		if !c.used {
			terms = append(terms, c.expr.String())
		}
	}
	return strings.Join(terms, " AND ")
}

// ---------------------------------------------------------------------------
// join candidates

// probe yields the right-hand rows that can match a non-NULL join key.
// exact says the equi-conjunct holds for every one of them; otherwise
// the loop still has to evaluate it. The rows are valid until the next
// call.
type probe interface {
	candidates(key types.Value) (rows []storage.Row, exact bool)
}

// probeFunc is a probe made of a closure (hashProbe's).
type probeFunc func(key types.Value) ([]storage.Row, bool)

func (f probeFunc) candidates(key types.Value) ([]storage.Row, bool) { return f(key) }

// indexProbe draws candidates from a stored table's index on the join
// column: per key, the rows a one-key lookup finds. A key of a kind the
// column cannot be compared with is not the index's to answer: every row
// is a candidate then, and the equi-conjunct raises the error a nested
// loop would. Under EXPLAIN no row is read. A probe is a frame's: its
// row buffer serves every key of every execution.
type indexProbe struct {
	ctx   *Context
	table *storage.Table
	index *storage.Index
	kind  types.Kind // the join column's
	snap  uint64
	rows  []storage.Row
}

func (p *indexProbe) candidates(key types.Value) ([]storage.Row, bool) {
	p.rows = p.rows[:0]
	collect := func(_ int, row storage.Row) bool {
		p.rows = append(p.rows, row)
		return true
	}
	exact := types.Comparable(p.kind, key.Kind())
	switch {
	case p.ctx.Plan != nil:
	case exact:
		p.index.LookupAt(p.snap, key, collect)
	default:
		p.table.ScanAt(p.snap, collect)
	}
	return p.rows, exact
}

// hashProbe draws candidates from a hash of a materialized relation on
// its join column. The hash answers a key exactly only when every value
// it holds can be compared with the key; otherwise all rows are
// candidates.
func hashProbe(rows []storage.Row, pos int) probe {
	buckets := make(map[types.Value][]storage.Row, len(rows))
	var kinds []types.Kind
	for _, row := range rows {
		v := row[pos]
		if v.IsNull() {
			continue
		}
		if !slices.Contains(kinds, v.Kind()) {
			kinds = append(kinds, v.Kind())
		}
		k := v.Key()
		buckets[k] = append(buckets[k], row)
	}
	return probeFunc(func(key types.Value) ([]storage.Row, bool) {
		for _, k := range kinds {
			if !types.Comparable(k, key.Kind()) {
				return rows, false
			}
		}
		return buckets[key.Key()], true
	})
}

// equiPair is the conjunct at of a join's pool, which equates the
// column left of the left side with the column right of the right side.
type equiPair struct{ at, left, right int }

// equiPairs lists, in pool order, the conjuncts of pool that equate a
// column of left with a column of right — each reference resolving to
// exactly one column of the two sides together, as it will on the joined
// row. They derive from the text and the columns alone (factorPlan).
func equiPairs(pool []conjunct, left, right []ColMeta) []equiPair {
	side := func(ref *ast.ColumnRef) (l, r int) {
		l, lerr := findCol(left, ref.Table, ref.Column)
		r, rerr := findCol(right, ref.Table, ref.Column)
		if lerr != nil || rerr != nil || (l >= 0 && r >= 0) {
			return -1, -1 // ambiguous on the joined row
		}
		return l, r
	}
	var pairs []equiPair
	for i := range pool {
		b, ok := pool[i].expr.(*ast.Binary)
		if !ok || b.Op != "=" {
			continue
		}
		x, xok := b.Left.(*ast.ColumnRef)
		y, yok := b.Right.(*ast.ColumnRef)
		if !xok || !yok {
			continue
		}
		xl, xr := side(x)
		yl, yr := side(y)
		switch {
		case xl >= 0 && yr >= 0:
			pairs = append(pairs, equiPair{i, xl, yr})
		case yl >= 0 && xr >= 0:
			pairs = append(pairs, equiPair{i, yl, xr})
		}
	}
	return pairs
}

// pickPair returns the first of pairs whose conjunct in pool is not yet
// taken over and that accept (when non-nil) agrees to for the right-hand
// position, or at = -1.
func pickPair(pairs []equiPair, pool []conjunct, accept func(rightPos int) bool) (at, leftPos, rightPos int) {
	for _, p := range pairs {
		if !pool[p.at].used && (accept == nil || accept(p.right)) {
			return p.at, p.left, p.right
		}
	}
	return -1, -1, -1
}

func aliasOf(bt *ast.BaseTable) string {
	if bt.Alias != "" {
		return bt.Alias
	}
	return bt.Name
}
