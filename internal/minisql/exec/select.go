package exec

import (
	"fmt"
	"hash/maphash"
	"maps"
	"slices"
	"strings"

	"pdmtune/internal/minisql/ast"
	"pdmtune/internal/minisql/storage"
	"pdmtune/internal/minisql/types"
)

const defaultMaxRecursion = 100000

// EvalSelect evaluates a full SELECT (with CTEs, set operations, ordering
// and limits) in the given outer scope (nil at top level).
func (ctx *Context) EvalSelect(sel *ast.Select, outer *Env) (*Relation, error) {
	restore, err := ctx.bindCTEs(sel.With, outer)
	if err != nil {
		return nil, err
	}
	defer restore()

	rel, err := ctx.evalBody(sel.Body, outer)
	if err != nil {
		return nil, err
	}
	if len(sel.OrderBy) > 0 {
		if ctx.Plan != nil {
			ctx.note("SORT (%d key(s))", len(sel.OrderBy))
		}
		if err := ctx.orderRelation(rel, sel.OrderBy, outer); err != nil {
			return nil, err
		}
	}
	if sel.Offset != nil || sel.Limit != nil {
		if err := ctx.applyLimit(rel, sel.Limit, sel.Offset, outer); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// bindCTEs evaluates WITH clauses and binds them in the context, in a
// copy of the binding map: the returned function drops the copy, and
// with it every binding this clause made or shadowed.
func (ctx *Context) bindCTEs(w *ast.With, outer *Env) (func(), error) {
	if w == nil {
		return func() {}, nil
	}
	enclosing := ctx.CTEs
	restore := func() {
		ctx.CTEs = enclosing
		ctx.SubqueryCache = nil
		ctx.inSetCache = nil
	}
	ctx.CTEs = make(map[string]*Relation, len(enclosing)+len(w.CTEs))
	maps.Copy(ctx.CTEs, enclosing)
	for i := range w.CTEs {
		cte := &w.CTEs[i]
		rel, err := ctx.evalCTE(cte, w.Recursive && references(cte.Select, cte.Name), outer)
		if err != nil {
			restore()
			return nil, err
		}
		ctx.setCTE(strings.ToLower(cte.Name), rel)
	}
	return restore, nil
}

func (ctx *Context) evalCTE(cte *ast.CTE, recursive bool, outer *Env) (*Relation, error) {
	if ctx.Plan != nil {
		kind := "CTE"
		if recursive {
			kind = "RECURSIVE CTE (semi-naive fixpoint)"
		}
		defer ctx.under(ctx.note("%s %s:", kind, cte.Name))()
	}
	if recursive {
		return ctx.evalRecursiveCTE(cte, outer)
	}
	rel, err := ctx.EvalSelect(cte.Select, outer)
	if err != nil {
		return nil, err
	}
	return renameCTE(rel, cte)
}

// setCTE binds (or rebinds) a CTE materialization. Rebinding invalidates
// the uncorrelated-subquery cache: a cached subquery may have read the
// previous binding.
func (ctx *Context) setCTE(key string, rel *Relation) {
	ctx.CTEs[key] = rel
	ctx.SubqueryCache = nil
	ctx.inSetCache = nil
}

func renameCTE(rel *Relation, cte *ast.CTE) (*Relation, error) {
	cols := rebind(rel.Cols, cte.Name)
	if len(cte.Cols) > 0 {
		if len(cte.Cols) != len(rel.Cols) {
			return nil, fmt.Errorf("sql: CTE %s declares %d columns but its query returns %d",
				cte.Name, len(cte.Cols), len(rel.Cols))
		}
		for i, c := range cte.Cols {
			cols[i].Name = c
		}
	}
	return &Relation{Cols: cols, Rows: rel.Rows}, nil
}

// evalRecursiveCTE runs semi-naive fixpoint evaluation: seed branches
// once, then repeatedly evaluate recursive branches with the CTE bound to
// the previous iteration's delta, until no new rows appear (SQL:1999).
func (ctx *Context) evalRecursiveCTE(cte *ast.CTE, outer *Env) (*Relation, error) {
	inner := cte.Select
	if inner.With != nil {
		return nil, fmt.Errorf("sql: nested WITH inside recursive CTE %s is not supported", cte.Name)
	}
	if len(inner.OrderBy) > 0 || inner.Limit != nil {
		return nil, fmt.Errorf("sql: ORDER BY/LIMIT inside recursive CTE %s is not supported", cte.Name)
	}
	// UNION anywhere in the definition (or a single self-referencing
	// branch) makes the fixpoint a set; only UNION ALL throughout keeps
	// duplicates.
	branches := ast.Cores(inner.Body)
	dedup := len(branches) == 1
	ast.Inspect(inner.Body, func(n ast.Node) bool {
		op, ok := n.(*ast.SetOp)
		dedup = dedup || (ok && op.Op == "UNION")
		return ok
	})

	var seeds, recs []*ast.SelectCore
	for _, b := range branches {
		if references(b, cte.Name) {
			recs = append(recs, b)
		} else {
			seeds = append(seeds, b)
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("sql: recursive CTE %s has no recursive branch", cte.Name)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sql: recursive CTE %s has no seed branch", cte.Name)
	}

	// round evaluates a set of branches against the current binding and
	// returns the rows they add to the fixpoint.
	var cols []ColMeta // of the first branch, which every other must match in number
	var seen keyTable
	round := func(branches []*ast.SelectCore) ([]storage.Row, error) {
		var added []storage.Row
		for _, b := range branches {
			rel, err := ctx.evalCore(b, outer)
			if err != nil {
				return nil, err
			}
			if cols == nil {
				cols = rel.Cols
			} else if len(rel.Cols) != len(cols) {
				return nil, fmt.Errorf("sql: recursive CTE %s branches disagree on column count (%d vs %d)",
					cte.Name, len(rel.Cols), len(cols))
			}
			if !dedup {
				added = append(added, rel.Rows...)
				continue
			}
			for _, row := range rel.Rows {
				if _, fresh := seen.add(row); fresh {
					added = append(added, row)
				}
			}
		}
		return added, nil
	}
	bound := func(rows []storage.Row) (*Relation, error) {
		return renameCTE(&Relation{Cols: cols, Rows: rows}, cte)
	}

	delta, err := round(seeds)
	if err != nil {
		return nil, err
	}
	all := append([]storage.Row(nil), delta...)
	maxIter := ctx.MaxRecursion
	if maxIter <= 0 {
		maxIter = defaultMaxRecursion
	}
	// Under EXPLAIN no table yields a row, so the seed is empty; the
	// recursive branches are still planned, once.
	for iter := 0; len(delta) > 0 || (ctx.Plan != nil && iter == 0); iter++ {
		if iter >= maxIter {
			return nil, fmt.Errorf("sql: recursive CTE %s exceeded %d iterations", cte.Name, maxIter)
		}
		deltaRel, err := bound(delta)
		if err != nil {
			return nil, err
		}
		ctx.setCTE(strings.ToLower(cte.Name), deltaRel)
		if delta, err = round(recs); err != nil {
			return nil, err
		}
		all = append(all, delta...)
	}
	return bound(all)
}

// evalBody evaluates a set-operation tree.
func (ctx *Context) evalBody(body ast.SelectBody, outer *Env) (*Relation, error) {
	switch b := body.(type) {
	case *ast.SelectCore:
		return ctx.evalCore(b, outer)
	case *ast.SetOp:
		left, err := ctx.evalBody(b.Left, outer)
		if err != nil {
			return nil, err
		}
		if ctx.Plan != nil {
			ctx.note("%s", b.Op)
		}
		right, err := ctx.evalBody(b.Right, outer)
		if err != nil {
			return nil, err
		}
		if len(left.Cols) != len(right.Cols) {
			return nil, fmt.Errorf("sql: UNION operands have %d and %d columns", len(left.Cols), len(right.Cols))
		}
		if b.Op == "UNION ALL" { // left is this evaluation's own
			left.Rows = append(left.Rows, right.Rows...)
			return left, nil
		}
		return &Relation{Cols: left.Cols, Rows: distinctRows(left.Rows, right.Rows)}, nil
	}
	return nil, fmt.Errorf("sql: unknown select body %T", body)
}

// evalCore evaluates one SELECT ... FROM ... WHERE ... GROUP BY ... HAVING
// in one pass over its rows: the FROM clause runs as one nested loop
// (fromLoop), and each complete row WHERE accepts is projected, or
// accumulated into its group, as the loop reaches it. No combined row of
// a join is allocated.
func (ctx *Context) evalCore(core *ast.SelectCore, outer *Env) (*Relation, error) {
	if ctx.Plan != nil {
		line := "SELECT"
		if len(core.GroupBy) > 0 {
			line += fmt.Sprintf(" GROUP BY %d expr(s)", len(core.GroupBy))
		}
		defer ctx.under(ctx.note(line))()
	}
	var from fromLoop // without FROM: no level, one empty row
	conjs := splitAnd(core.Where, nil)
	if core.From != nil {
		from.levels = make([]level, 0, factors(core.From))
		if err := ctx.planFrom(&from, core.From, outer, conjs, true, true); err != nil {
			return nil, err
		}
	}
	ctx.noteFilter(conjs)

	// Every clause below evaluates in this one scope, its column
	// references bound to positions before the first row.
	scope := &coreScope{}
	scope.Env = Env{cols: from.cols, parent: outer, slots: &scope.table}
	env := &scope.Env
	if err := bindColumnRefs(core, env); err != nil {
		return nil, err
	}
	outCols, plan, err := projectionPlan(core.Items, from.cols)
	if err != nil {
		return nil, err
	}
	out := &Relation{Cols: outCols}
	var groups *grouping
	if aggs := collectAggregates(core); len(aggs) > 0 || len(core.GroupBy) > 0 {
		groups = newGrouping(core.GroupBy, aggs, len(from.levels) > 1)
	}

	// The one row loop: the WHERE conjuncts the FROM clause has not taken
	// over, then the projection or the accumulation.
	filter := slices.ContainsFunc(conjs, func(c conjunct) bool { return !c.used })
	err = ctx.run(&from, 0, func(row storage.Row) error {
		env.row = row
		if filter {
			if ok, err := ctx.allTrue(conjs, -1, env); !ok {
				return err
			}
		}
		if groups != nil {
			return groups.add(ctx, env)
		}
		projected, err := ctx.projectRow(plan, env)
		out.Rows = append(out.Rows, projected) // an error fails the statement
		return err
	})
	if err != nil {
		return nil, err
	}
	if groups != nil {
		if out.Rows, err = groups.project(ctx, core.Having, plan, env); err != nil {
			return nil, err
		}
	}
	if core.Distinct {
		out.Rows = distinctRows(out.Rows)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// FROM evaluation: the one nested loop

// fromLoop is a FROM clause planned as one nested loop over its table
// factors, the levels, which write their candidates into one scratch row.
type fromLoop struct {
	cols   []ColMeta
	levels []level
	row    storage.Row
}

// level is one table factor of a fromLoop. Its candidates come from acc
// (the first level's access path), from probe (for the key at row[key])
// or are all its rows. A candidate's columns go to row[at:end] and must
// pass the ON conjuncts there, but for on[skip], which an exact probe
// settles. A LEFT JOIN goes on with NULLs when no candidate matches.
type level struct {
	acc          *access
	probe        probe
	rows         []storage.Row
	at, end, key int
	on           []conjunct
	skip         int
	left         bool
	env          Env // the scope of on: the columns up to this level's
}

// planFrom plans a table reference into the loop: a join chain as its
// left side's levels and then its right factor's, a comma list as its
// items' in order, a table factor as one level. conjs are the WHERE
// conjuncts available for pushdown; unqualified says ref is the only FROM
// table, so unqualified column names are its own; pushable is false under
// the right side of a LEFT JOIN, where pushdown would change the result.
func (ctx *Context) planFrom(l *fromLoop, ref ast.TableRef, outer *Env, conjs []conjunct, unqualified, pushable bool) error {
	switch r := ref.(type) {
	case *ast.Join:
		if err := ctx.planFrom(l, r.Left, outer, conjs, false, pushable); err != nil {
			return err
		}
		return ctx.planJoin(l, r.Right, r.Type, splitAnd(r.On, nil), true, outer, conjs, pushable && r.Type != "LEFT")
	case *ast.CrossList:
		// FROM a, b WHERE a.x = b.y: each further item joins on a WHERE
		// equi-conjunct when there is one, and is a cross product otherwise.
		err := ctx.planFrom(l, r.Items[0], outer, conjs, false, pushable)
		for _, item := range r.Items[1:] {
			if err != nil {
				return err
			}
			err = ctx.planJoin(l, item, "INNER", conjs, false, outer, conjs, pushable)
		}
		return err
	}
	cols, lv, err := ctx.factor(ref, outer, conjs, unqualified, pushable, true)
	if err == nil {
		l.add(cols, lv)
	}
	return err
}

// planJoin plans ref as the next level. pool holds the conjuncts an
// equi-pair may come from: for JOIN … ON the ON clause, all of which a
// row must satisfy (whole); for a comma list the WHERE clause, of which
// the join takes over only the equi-conjunct. A key's candidates come
// from an index on the join column or a hash of the materialized right
// side, or are all its rows. Under EXPLAIN the join's line follows its
// left side's, with the right side nested under it when materialized.
func (ctx *Context) planJoin(l *fromLoop, ref ast.TableRef, joinType string, pool []conjunct, whole bool,
	outer *Env, conjs []conjunct, pushable bool) error {
	if ctx.Plan != nil {
		defer ctx.under(ctx.note(""))()
	}
	var lv level
	var cols []ColMeta
	var index *storage.Index
	at, method := -1, "NESTED LOOP"
	if bt, ok := ref.(*ast.BaseTable); ok && ctx.CTEs[strings.ToLower(bt.Name)] == nil {
		if table, ok := ctx.DB.Table(bt.Name); ok {
			tcols := TableCols(table, aliasOf(bt))
			indexed := func(rp int) bool { return table.IndexOn(tcols[rp].Name) != nil }
			if i, lp, rp := equiPair(pool, l.cols, tcols, indexed); i >= 0 {
				index = table.IndexOn(tcols[rp].Name)
				at, lv.key, cols, lv.probe, method = i, lp, tcols, ctx.indexProbe(table, index), "INDEX JOIN"
			}
		}
	}
	if lv.probe == nil {
		var err error
		if cols, lv, err = ctx.factor(ref, outer, conjs, false, pushable, false); err != nil {
			return err
		}
		if i, lp, rp := equiPair(pool, l.cols, cols, nil); i >= 0 {
			at, lv.key, lv.probe, method = i, lp, hashProbe(lv.rows, rp), "HASH JOIN"
		}
	}
	lv.on, lv.skip, lv.left, lv.env.parent = pool, at, joinType == "LEFT", outer
	if !whole {
		lv.on, lv.skip = nil, 0
		if at >= 0 { // the level checks a copy where a probe is inexact
			lv.on = []conjunct{{expr: pool[at].expr}}
			pool[at].used = true
		}
	}
	if ctx.Plan != nil {
		if ctx.Plan.Text = joinType + " " + method; index != nil {
			ctx.Plan.Text += " " + ref.String() + " USING " + index.Name
		}
		if terms := conjString(lv.on); terms != "" {
			ctx.Plan.Text += " ON " + terms
		}
	}
	l.add(cols, lv)
	return nil
}

// add appends a level of the given columns to the loop.
func (l *fromLoop) add(cols []ColMeta, lv level) {
	lv.at, lv.end = len(l.cols), len(l.cols)+len(cols)
	if lv.at == 0 {
		l.cols = cols
	} else { // earlier levels' scopes hold prefixes of l.cols: never append in place
		l.cols = append(l.cols[:lv.at:lv.at], cols...)
	}
	l.levels = append(l.levels, lv)
}

// factors counts the levels planFrom makes of a table reference.
func factors(ref ast.TableRef) int {
	switch r := ref.(type) {
	case *ast.Join:
		return factors(r.Left) + 1
	case *ast.CrossList:
		return factors(r.Items[0]) + len(r.Items) - 1
	}
	return 1
}

// factor plans ref as one level: a stored table through its access path,
// streamed (stream) or materialized; a CTE's or a derived table's rows;
// a join chain right of a comma as its own loop's rows, copied.
func (ctx *Context) factor(ref ast.TableRef, outer *Env, conjs []conjunct, unqualified, pushable, stream bool) ([]ColMeta, level, error) {
	var rows []storage.Row // what a materialized level collects
	switch r := ref.(type) {
	case *ast.BaseTable:
		if rel, ok := ctx.CTEs[strings.ToLower(r.Name)]; ok { // a CTE binding takes precedence
			if ctx.Plan != nil {
				ctx.note("CTE SCAN %s", r)
			}
			return rebind(rel.Cols, aliasOf(r)), level{rows: rel.Rows}, nil
		}
		if !pushable {
			conjs = nil
		}
		acc, cols, err := ctx.tableAccess(r, outer, conjs, unqualified)
		if err != nil || stream {
			return cols, level{acc: acc}, err
		}
		err = ctx.read(acc, func(_ int, row storage.Row) error { rows = append(rows, row); return nil })
		return cols, level{rows: rows}, err
	case *ast.SubqueryTable:
		if ctx.Plan != nil {
			defer ctx.under(ctx.note("DERIVED TABLE %s:", r.Alias))()
		}
		rel, err := ctx.evalSubquery(r.Select, outer)
		if err != nil {
			return nil, level{}, err
		}
		return rebind(rel.Cols, r.Alias), level{rows: rel.Rows}, nil
	case *ast.Join, *ast.CrossList:
		var sub fromLoop
		err := ctx.planFrom(&sub, ref, outer, conjs, false, pushable)
		if err == nil {
			err = ctx.run(&sub, 0, func(row storage.Row) error { rows = append(rows, slices.Clone(row)); return nil })
		}
		return sub.cols, level{rows: rows}, err
	}
	return nil, level{}, fmt.Errorf("sql: unknown table reference %T", ref)
}

// run calls emit with every row of the loop from level i on, in order:
// the level's candidates in their order, each followed by its matches at
// the next level in theirs. Without levels, emit sees one empty row.
func (ctx *Context) run(l *fromLoop, i int, emit func(storage.Row) error) error {
	if i == len(l.levels) {
		return emit(l.row)
	}
	lv := &l.levels[i]
	if lv.acc != nil {
		return ctx.read(lv.acc, func(_ int, row storage.Row) error {
			l.put(lv, row)
			return ctx.run(l, 1, emit)
		})
	}
	rows, skip := lv.rows, -1
	if lv.probe != nil {
		rows = nil
		if key := l.row[lv.key]; !key.IsNull() {
			var exact bool
			if rows, exact = lv.probe(key); exact {
				skip = lv.skip
			}
		}
	}
	matched := false
	for _, row := range rows {
		l.put(lv, row)
		ok, err := ctx.allTrue(lv.on, skip, &lv.env)
		if ok {
			matched = true
			err = ctx.run(l, i+1, emit)
		}
		if err != nil {
			return err
		}
	}
	if !matched && lv.left {
		clear(l.row[lv.at:lv.end])
		return ctx.run(l, i+1, emit)
	}
	return nil
}

// put makes row the level's candidate: the loop's row in a loop of one
// level, else copied into the scratch row, made at the first candidate.
func (l *fromLoop) put(lv *level, row storage.Row) {
	switch {
	case len(l.levels) == 1:
		l.row = row
		return
	case l.row == nil:
		l.row = make(storage.Row, len(l.cols))
		for i := range l.levels {
			lv := &l.levels[i]
			lv.env.cols, lv.env.row = l.cols[:lv.end], l.row[:lv.end]
		}
	}
	copy(l.row[lv.at:], row)
}

// tableAccess resolves a stored table of a FROM clause and decides how
// it is read for conjs (chooseAccess), noting the decision under
// EXPLAIN; it returns the decision and the table's columns under its
// alias.
func (ctx *Context) tableAccess(r *ast.BaseTable, outer *Env, conjs []conjunct, unqualified bool) (*access, []ColMeta, error) {
	table, ok := ctx.DB.Table(r.Name)
	if !ok {
		return nil, nil, fmt.Errorf("sql: no such table %s", r.Name)
	}
	acc, err := ctx.chooseAccess(table, aliasOf(r), unqualified, conjs, outer)
	if err != nil {
		return nil, nil, err
	}
	if ctx.Plan != nil {
		ctx.note("%s", acc).Kids = acc.sub
	}
	return acc, TableCols(table, aliasOf(r)), nil
}

// ---------------------------------------------------------------------------
// projection

// projCol is one output column: the source column at pos or, with pos
// negative, the value of expr.
type projCol struct {
	pos  int
	expr ast.Expr
}

func projectionPlan(items []ast.SelectItem, src []ColMeta) ([]ColMeta, []projCol, error) {
	var cols []ColMeta
	var plan []projCol
	for _, item := range items {
		if !item.Star {
			name := item.Alias
			if cr, ok := item.Expr.(*ast.ColumnRef); ok && name == "" {
				name = cr.Column
			} else if name == "" {
				name = item.Expr.String()
			}
			cols = append(cols, ColMeta{Name: name})
			plan = append(plan, projCol{pos: -1, expr: item.Expr})
			continue
		}
		before := len(cols)
		for i, c := range src {
			if item.StarTable == "" || strings.EqualFold(c.Table, item.StarTable) {
				cols = append(cols, c)
				plan = append(plan, projCol{pos: i})
			}
		}
		if item.StarTable != "" && len(cols) == before {
			return nil, nil, fmt.Errorf("sql: %s.* matches no columns", item.StarTable)
		}
	}
	return cols, plan, nil
}

func (ctx *Context) projectRow(plan []projCol, env *Env) (storage.Row, error) {
	out := ctx.slab.row(len(plan))
	for i, p := range plan {
		if p.pos >= 0 {
			out[i] = env.row[p.pos]
			continue
		}
		v, err := ctx.EvalExpr(p.expr, env)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// grouping and aggregation

// collectAggregates gathers the distinct aggregate nodes of the core's own
// query level; subqueries aggregate independently.
func collectAggregates(core *ast.SelectCore) []*ast.Aggregate {
	var aggs []*ast.Aggregate
	visit := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Aggregate:
			if !slices.Contains(aggs, n) {
				aggs = append(aggs, n)
			}
			return false
		case *ast.Select:
			return false
		}
		return true
	}
	for _, item := range core.Items {
		ast.Inspect(item.Expr, visit)
	}
	ast.Inspect(core.Having, visit)
	return aggs
}

// grouping accumulates a core's rows into groups as they stream by,
// keeping the groups in first-seen order. Without GROUP BY there is
// exactly one group, even over no rows. A scratch row is copied as first.
type grouping struct {
	by      []ast.Expr
	aggs    []*ast.Aggregate
	index   keyTable // of the groups' GROUP BY values, in keys
	keys    []types.Value
	groups  []group
	scratch bool
}

// group is one group's first row and its aggregates' accumulators, one
// per aggregate of the grouping, in its order.
type group struct {
	first storage.Row
	seen  bool // first is set
	accs  []accumulator
}

func newGrouping(by []ast.Expr, aggs []*ast.Aggregate, scratch bool) *grouping {
	g := &grouping{by: by, aggs: aggs, scratch: scratch}
	if len(by) == 0 {
		g.groups = append(g.groups, g.newGroup())
	}
	return g
}

func (g *grouping) newGroup() group {
	accs := make([]accumulator, len(g.aggs))
	for i, a := range g.aggs {
		accs[i].agg = a
	}
	return group{accs: accs}
}

// add accumulates the row in env into its group.
func (g *grouping) add(ctx *Context, env *Env) error {
	i := 0
	if len(g.by) > 0 {
		at := len(g.keys) // the row's values go after the last group's
		for _, ge := range g.by {
			v, err := ctx.EvalExpr(ge, env)
			if err != nil {
				return err
			}
			g.keys = append(g.keys, v)
		}
		var added bool
		if i, added = g.index.add(g.keys[at:]); added {
			g.groups = append(g.groups, g.newGroup())
		} else {
			g.keys = g.keys[:at]
		}
	}
	gr := &g.groups[i]
	if !gr.seen {
		gr.first, gr.seen = env.row, true
		if g.scratch {
			gr.first = slices.Clone(env.row)
		}
	}
	for j := range gr.accs {
		if err := gr.accs[j].add(ctx, env); err != nil {
			return err
		}
	}
	return nil
}

// project evaluates HAVING and the projection once per group, with the
// group's aggregate values in scope, and returns the rows HAVING keeps.
// Columns outside aggregates read the group's first row, or NULLs when
// the group is the empty input of an ungrouped aggregate.
func (g *grouping) project(ctx *Context, having ast.Expr, plan []projCol, env *Env) ([]storage.Row, error) {
	saved := ctx.aggValues
	defer func() { ctx.aggValues = saved }()
	vals := make(map[*ast.Aggregate]types.Value, len(g.aggs))
	var out []storage.Row
	for i := range g.groups {
		gr := &g.groups[i]
		for j := range gr.accs {
			v, err := gr.accs[j].value()
			if err != nil {
				return nil, err
			}
			vals[gr.accs[j].agg] = v
		}
		ctx.aggValues = vals
		env.row = gr.first
		if !gr.seen {
			env.row = make(storage.Row, len(env.cols))
		}
		if having != nil {
			t, err := ctx.EvalPredicate(having, env)
			if err != nil {
				return nil, err
			}
			if t != types.True {
				continue
			}
		}
		row, err := ctx.projectRow(plan, env)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// accumulator folds one aggregate over the rows of a group, one row at a
// time.
type accumulator struct {
	agg        *ast.Aggregate
	rows       int64 // rows seen (COUNT(*))
	n          int64 // non-NULL values admitted
	sumF       float64
	sumI       int64
	anyFloat   bool
	minV, maxV types.Value
	distinct   *inSet // DISTINCT: the values admitted so far
}

func (a *accumulator) add(ctx *Context, env *Env) error {
	agg := a.agg
	if agg.Star {
		a.rows++
		return nil
	}
	v, err := ctx.EvalExpr(agg.Arg, env)
	if err != nil || v.IsNull() {
		return err
	}
	if agg.Distinct {
		if a.distinct == nil {
			a.distinct = newInSet(0)
		}
		if !a.distinct.add(v) {
			return nil
		}
	}
	a.n++
	switch agg.Func {
	case "SUM", "AVG":
		f, ok := v.AsFloat()
		if !ok {
			return fmt.Errorf("sql: %s requires numeric values, got %s", agg.Func, v.Kind())
		}
		a.sumF += f
		if v.Kind() == types.KindFloat {
			a.anyFloat = true
		} else {
			a.sumI += v.Int()
		}
	case "MIN":
		if a.minV.IsNull() {
			a.minV = v
		} else if c, err := types.Compare(v, a.minV); err == nil && c < 0 {
			a.minV = v
		}
	case "MAX":
		if a.maxV.IsNull() {
			a.maxV = v
		} else if c, err := types.Compare(v, a.maxV); err == nil && c > 0 {
			a.maxV = v
		}
	}
	return nil
}

// value is the aggregate over the rows accumulated.
func (a *accumulator) value() (types.Value, error) {
	switch a.agg.Func {
	case "COUNT":
		if a.agg.Star {
			return types.NewInt(a.rows), nil
		}
		return types.NewInt(a.n), nil
	case "SUM":
		if a.n == 0 {
			return types.Null, nil
		}
		if a.anyFloat {
			return types.NewFloat(a.sumF), nil
		}
		return types.NewInt(a.sumI), nil
	case "AVG":
		if a.n == 0 {
			return types.Null, nil
		}
		return types.NewFloat(a.sumF / float64(a.n)), nil
	case "MIN":
		return a.minV, nil
	case "MAX":
		return a.maxV, nil
	}
	return types.Null, fmt.Errorf("sql: unknown aggregate %s", a.agg.Func)
}

// ---------------------------------------------------------------------------
// ordering and limits

// orderRelation sorts the rows stably by the ORDER BY items, whose keys
// are computed once per row into one array.
func (ctx *Context) orderRelation(rel *Relation, items []ast.OrderItem, outer *Env) error {
	for _, item := range items {
		if item.Position > len(rel.Cols) {
			return fmt.Errorf("sql: ORDER BY position %d exceeds %d output columns", item.Position, len(rel.Cols))
		}
	}
	type keyed struct {
		row  storage.Row
		keys []types.Value
	}
	n := len(items)
	rows, keys := make([]keyed, len(rel.Rows)), make([]types.Value, len(rel.Rows)*n)
	env := &Env{cols: rel.Cols, parent: outer}
	for i, row := range rel.Rows {
		rows[i] = keyed{row: row, keys: keys[i*n : i*n+n]}
		for j, item := range items {
			if item.Position > 0 {
				rows[i].keys[j] = row[item.Position-1]
				continue
			}
			env.row = row
			v, err := ctx.EvalExpr(item.Expr, env)
			if err != nil {
				return err
			}
			rows[i].keys[j] = v
		}
	}
	slices.SortStableFunc(rows, func(a, b keyed) int {
		for j, item := range items {
			if c := types.CompareForSort(a.keys[j], b.keys[j]); c != 0 {
				if item.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	for i := range rows {
		rel.Rows[i] = rows[i].row
	}
	return nil
}

func (ctx *Context) applyLimit(rel *Relation, limit, offset ast.Expr, outer *Env) error {
	count := func(e ast.Expr, clause string, absent int) (int, error) {
		if e == nil {
			return absent, nil
		}
		v, err := ctx.EvalExpr(e, outer)
		if err != nil {
			return 0, err
		}
		if v.Kind() != types.KindInt || v.Int() < 0 {
			return 0, fmt.Errorf("sql: %s must be a non-negative integer", clause)
		}
		return int(v.Int()), nil
	}
	start, err := count(offset, "OFFSET", 0)
	if err != nil {
		return err
	}
	n, err := count(limit, "LIMIT", len(rel.Rows))
	if err != nil {
		return err
	}
	start = min(start, len(rel.Rows))
	rel.Rows = rel.Rows[start : start+min(n, len(rel.Rows)-start)]
	return nil
}

// ---------------------------------------------------------------------------
// helpers

// bindColumnRefs resolves every direct column reference of the core
// (ast.CoreRefs) once, before any row: into the slot table of the core's
// scope env, as a position in its row or as a column of an enclosing
// scope. It is also the static check — even when the relation is empty,
// each reference must resolve, so that a typo does not pass silently on
// an empty table. Subqueries bind in their own scope when (and if) they
// run. Slots given twice in one core (a tree not made by the parser)
// leave the core to resolve by name.
func bindColumnRefs(core *ast.SelectCore, env *Env) error {
	var failed error
	ast.CoreRefs(core, func(ref *ast.ColumnRef) bool {
		at, err := resolve(ref, env.cols, env.parent)
		if failed = err; err != nil || env.slots == nil || ref.Slot <= 0 || ref.Slot > maxSlots {
			return err == nil
		}
		if env.slots[ref.Slot-1] != 0 {
			env.slots = nil
		} else {
			env.slots[ref.Slot-1] = at
		}
		return true
	})
	return failed
}

// resolve settles ref against cols and the outer scopes: its position
// plus one when it names exactly one column of cols, outerSlot when,
// failing any there, it names a column of some outer scope (which one,
// and whether uniquely, the row-time lookup settles), 0 when the position
// does not fit a slot.
func resolve(ref *ast.ColumnRef, cols []ColMeta, outer *Env) (uint8, error) {
	pos, err := findCol(cols, ref.Table, ref.Column)
	if err != nil {
		return 0, err
	}
	if pos >= 0 {
		if pos+1 >= outerSlot {
			return 0, nil
		}
		return uint8(pos + 1), nil
	}
	for env := outer; env != nil; env = env.parent {
		if at, err := findCol(env.cols, ref.Table, ref.Column); at >= 0 || err != nil {
			return outerSlot, nil
		}
	}
	return 0, errNoColumn{table: ref.Table, name: ref.Column}
}

// distinctRows keeps the first of every set of equal rows, in order.
func distinctRows(lists ...[]storage.Row) []storage.Row {
	var seen keyTable
	for _, rows := range lists {
		for _, row := range rows {
			seen.add(row)
		}
	}
	return seen.rows
}

// keyTable is the set of tuples behind DISTINCT, UNION, GROUP BY and IN
// sets, numbered in first-added order. A tuple is found by its maphash
// (types.Value.WriteHash) and confirmed value by value (types.SameKey):
// no key bytes are built or kept.
type keyTable struct {
	seed  maphash.Seed
	heads map[uint64]int32 // a hash → its newest entry, plus one
	chain []int32          // an entry → the next older entry with its hash, plus one; 0 ends
	rows  []storage.Row    // the entries' tuples, as added
}

// find returns the entry equal to vals, or -1, and the hash of vals.
func (t *keyTable) find(vals []types.Value) (int, uint64) {
	if t.heads == nil {
		t.heads, t.seed = map[uint64]int32{}, maphash.MakeSeed()
	}
	var h maphash.Hash
	h.SetSeed(t.seed)
	for _, v := range vals {
		v.WriteHash(&h)
	}
	sum := h.Sum64()
	for e := t.heads[sum]; e > 0; e = t.chain[e-1] {
		if slices.EqualFunc(t.rows[e-1], vals, types.SameKey) {
			return int(e - 1), sum
		}
	}
	return -1, sum
}

// add returns the entry equal to vals, or adds vals itself (no copy) as
// the next one; added says which.
func (t *keyTable) add(vals []types.Value) (entry int, added bool) {
	entry, sum := t.find(vals)
	if entry >= 0 {
		return entry, false
	}
	t.chain = append(t.chain, t.heads[sum])
	t.rows = append(t.rows, vals)
	t.heads[sum] = int32(len(t.rows))
	return len(t.rows) - 1, true
}

// slab cuts the rows a statement projects from shared chunks. A chunk
// holds as many values as were cut before it (at least a row's, at most
// slabValues), so the first rows cost an allocation each, as rows of
// their own would, and a long result an allocation per doubling. A chunk
// lives while any row cut from it does, so rows the statement discards
// (a correlated subquery's per-row results, a recursion's duplicates)
// can live as long as its result.
type slab struct {
	free []types.Value
	cut  int // values
}

const slabValues = 4096

// row returns a row of n values, its capacity n: an append to it copies.
func (s *slab) row(n int) storage.Row {
	if len(s.free) < n {
		s.free = make([]types.Value, max(n, min(s.cut, slabValues)))
	}
	s.cut += n
	row := s.free[:n:n]
	s.free = s.free[n:]
	return row
}

// references reports whether the tree below n — FROM clauses, nested
// subqueries and CTE definitions included — names the table.
func references(n ast.Node, table string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if bt, ok := n.(*ast.BaseTable); ok && strings.EqualFold(bt.Name, table) {
			found = true
		}
		return !found
	})
	return found
}
