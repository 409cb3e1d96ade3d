package exec

import (
	"fmt"
	"maps"
	"slices"
	"sort"
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
	seen := rowSet{}
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
			for _, row := range rel.Rows {
				if !dedup || seen.add(row) {
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
// in one pass over its rows: each row WHERE accepts is projected, or
// accumulated into its group, as it is read. A stored table streams its
// rows through its access path; a join, a CTE or a derived table is
// materialized first and its rows go through the same loop.
func (ctx *Context) evalCore(core *ast.SelectCore, outer *Env) (*Relation, error) {
	if ctx.Plan != nil {
		line := "SELECT"
		if len(core.GroupBy) > 0 {
			line += fmt.Sprintf(" GROUP BY %d expr(s)", len(core.GroupBy))
		}
		defer ctx.under(ctx.note(line))()
	}
	var acc *access           // a stored table's access path, or
	rows := []storage.Row{{}} // the materialized rows (a constant SELECT: one empty row)
	var cols []ColMeta
	conjs := splitAnd(core.Where, nil)
	if core.From != nil {
		var err error
		if bt, ok := core.From.(*ast.BaseTable); ok && ctx.CTEs[strings.ToLower(bt.Name)] == nil { // a CTE binding takes precedence
			acc, cols, err = ctx.tableAccess(bt, outer, conjs, true)
		} else {
			var rel *Relation
			if rel, err = ctx.evalFrom(core.From, outer, conjs, false, true); err == nil {
				rows, cols = rel.Rows, rel.Cols
			}
		}
		if err != nil {
			return nil, err
		}
	}
	ctx.noteFilter(conjs)

	// Every clause below evaluates in this one scope, its column
	// references bound to positions before the first row.
	scope := &coreScope{}
	scope.Env = Env{cols: cols, parent: outer, slots: &scope.table}
	env := &scope.Env
	if err := bindColumnRefs(core, env); err != nil {
		return nil, err
	}
	outCols, plan, err := projectionPlan(core.Items, cols)
	if err != nil {
		return nil, err
	}
	out := &Relation{Cols: outCols}
	var groups *grouping
	if aggs := collectAggregates(core); len(aggs) > 0 || len(core.GroupBy) > 0 {
		groups = newGrouping(core.GroupBy, aggs)
	}

	// The one row loop: the WHERE conjuncts the FROM clause has not taken
	// over, then the projection or the accumulation.
	filter := slices.ContainsFunc(conjs, func(c conjunct) bool { return !c.used })
	each := func(row storage.Row) error {
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
		if err != nil {
			return err
		}
		out.Rows = append(out.Rows, projected)
		return nil
	}
	if acc != nil {
		err = ctx.read(acc, func(_ int, row storage.Row) error { return each(row) })
	} else {
		for _, row := range rows {
			if err = each(row); err != nil {
				break
			}
		}
	}
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
// FROM evaluation

// evalFrom materializes a table reference. conjs are WHERE conjuncts
// available for pushdown; unqualified says ref is the only FROM table, so
// unqualified column names are its own; pushable disables pushdown under
// the right side of LEFT JOINs where it would change semantics.
func (ctx *Context) evalFrom(ref ast.TableRef, outer *Env, conjs []conjunct, unqualified, pushable bool) (*Relation, error) {
	switch r := ref.(type) {
	case *ast.BaseTable:
		// CTE binding takes precedence over stored tables.
		if rel, ok := ctx.CTEs[strings.ToLower(r.Name)]; ok {
			if ctx.Plan != nil {
				ctx.note("CTE SCAN %s", r)
			}
			return &Relation{Cols: rebind(rel.Cols, aliasOf(r)), Rows: rel.Rows}, nil
		}
		if !pushable {
			conjs = nil
		}
		acc, cols, err := ctx.tableAccess(r, outer, conjs, unqualified)
		if err != nil {
			return nil, err
		}
		rel := &Relation{Cols: cols}
		err = ctx.read(acc, func(_ int, row storage.Row) error {
			rel.Rows = append(rel.Rows, row)
			return nil
		})
		return rel, err
	case *ast.SubqueryTable:
		if ctx.Plan != nil {
			defer ctx.under(ctx.note("DERIVED TABLE %s:", r.Alias))()
		}
		rel, err := ctx.evalSubquery(r.Select, outer)
		if err != nil {
			return nil, err
		}
		return &Relation{Cols: rebind(rel.Cols, r.Alias), Rows: rel.Rows}, nil
	case *ast.Join:
		left, err := ctx.evalFrom(r.Left, outer, conjs, false, pushable)
		if err != nil {
			return nil, err
		}
		return ctx.join(left, r.Right, r.Type, splitAnd(r.On, nil), true, outer, conjs, pushable && r.Type != "LEFT")
	case *ast.CrossList:
		// FROM a, b WHERE a.x = b.y: each further item joins on a WHERE
		// equi-conjunct when there is one, and is a cross product otherwise.
		acc, err := ctx.evalFrom(r.Items[0], outer, conjs, false, pushable)
		for _, item := range r.Items[1:] {
			if err != nil {
				return nil, err
			}
			acc, err = ctx.join(acc, item, "INNER", conjs, false, outer, conjs, pushable)
		}
		return acc, err
	}
	return nil, fmt.Errorf("sql: unknown table reference %T", ref)
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
	out := make(storage.Row, len(plan))
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
// exactly one group, even over no rows.
type grouping struct {
	by     []ast.Expr
	aggs   []*ast.Aggregate
	index  map[string]int
	key    []byte
	groups []group
}

// group is one group's first row and its aggregates' accumulators, one
// per aggregate of the grouping, in its order.
type group struct {
	first storage.Row
	seen  bool // first is set
	accs  []accumulator
}

func newGrouping(by []ast.Expr, aggs []*ast.Aggregate) *grouping {
	g := &grouping{by: by, aggs: aggs, index: map[string]int{}}
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
		g.key = g.key[:0]
		for _, ge := range g.by {
			v, err := ctx.EvalExpr(ge, env)
			if err != nil {
				return err
			}
			g.key = append(v.AppendKey(g.key), 0x1f)
		}
		var ok bool
		if i, ok = g.index[string(g.key)]; !ok {
			i, g.index[string(g.key)] = len(g.groups), len(g.groups)
			g.groups = append(g.groups, g.newGroup())
		}
	}
	gr := &g.groups[i]
	if !gr.seen {
		gr.first, gr.seen = env.row, true
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
	rows := make([]keyed, len(rel.Rows))
	env := &Env{cols: rel.Cols, parent: outer}
	for i, row := range rel.Rows {
		keys := make([]types.Value, len(items))
		for j, item := range items {
			if item.Position > 0 {
				keys[j] = row[item.Position-1]
				continue
			}
			env.row = row
			v, err := ctx.EvalExpr(item.Expr, env)
			if err != nil {
				return err
			}
			keys[j] = v
		}
		rows[i] = keyed{row: row, keys: keys}
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for j, item := range items {
			c := types.CompareForSort(rows[a].keys[j], rows[b].keys[j])
			if c == 0 {
				continue
			}
			if item.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
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
	seen := rowSet{}
	var out []storage.Row
	for _, rows := range lists {
		for _, row := range rows {
			if seen.add(row) {
				out = append(out, row)
			}
		}
	}
	return out
}

// rowSet is the set of rows seen so far, by the keys of their values.
type rowSet struct {
	keys map[string]struct{}
	buf  []byte
}

// add puts the row into the set and reports whether it was new; a row
// seen before costs no allocation.
func (s *rowSet) add(row storage.Row) bool {
	s.buf = s.buf[:0]
	for _, v := range row {
		s.buf = append(v.AppendKey(s.buf), 0x1e)
	}
	if _, seen := s.keys[string(s.buf)]; seen {
		return false
	}
	if s.keys == nil {
		s.keys = map[string]struct{}{}
	}
	s.keys[string(s.buf)] = struct{}{}
	return true
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
